//! Protocol invariant assertions.
//!
//! A Byzantine-fault-tolerant replica must never limp past a violated
//! protocol invariant: a replica whose internal state has diverged from
//! the protocol is indistinguishable from a corrupted one, so the only
//! safe reaction is to stop the dispatch and capture evidence. The
//! macros here are the sanctioned way to do that. They panic with a
//! recognizable `protocol invariant violated:` prefix; when the party
//! runs under an observability-enabled runtime, the server loop catches
//! the panic, writes a flight-recorder dump (reason `invariant`) with
//! the live instance snapshots and the recent trace ring, and then
//! resumes unwinding.
//!
//! `sintra-core` and `sintra-net` deny clippy's `unwrap_used`,
//! `expect_used`, `panic` and `unreachable` outside tests precisely so
//! that every can't-happen path funnels through these macros (and
//! therefore through the dump).

/// Signals a violated protocol invariant with a formatted message.
///
/// Equivalent to `panic!` with a `protocol invariant violated:` prefix;
/// use it for unreachable states whose reachability would mean the
/// replica's state machine has diverged.
#[macro_export]
macro_rules! invariant_violated {
    ($($arg:tt)+) => {
        ::std::panic!("protocol invariant violated: {}", ::std::format_args!($($arg)+))
    };
}

/// Asserts a protocol invariant, panicking through
/// [`invariant_violated!`] when it does not hold.
#[macro_export]
macro_rules! invariant {
    ($cond:expr, $($arg:tt)+) => {
        if !$cond {
            $crate::invariant_violated!($($arg)+);
        }
    };
}

/// Unwraps an `Option` or `Result` whose failure case is a protocol
/// invariant violation, panicking through [`invariant_violated!`] with
/// the given message (plus the error's display for `Result`).
#[macro_export]
macro_rules! invariant_unwrap {
    ($e:expr, $($arg:tt)+) => {
        match $crate::invariant::IntoInvariant::into_invariant($e) {
            ::std::result::Result::Ok(v) => v,
            ::std::result::Result::Err(err) => {
                $crate::invariant_violated!("{}{}", ::std::format_args!($($arg)+), err)
            }
        }
    };
}

/// Fallible values accepted by [`invariant_unwrap!`].
pub trait IntoInvariant {
    /// The success value.
    type Ok;
    /// Splits into the success value or a rendered failure suffix.
    fn into_invariant(self) -> Result<Self::Ok, String>;
}

impl<T> IntoInvariant for Option<T> {
    type Ok = T;
    fn into_invariant(self) -> Result<T, String> {
        self.ok_or_else(String::new)
    }
}

impl<T, E: std::fmt::Display> IntoInvariant for Result<T, E> {
    type Ok = T;
    fn into_invariant(self) -> Result<T, String> {
        self.map_err(|e| format!(": {e}"))
    }
}

/// Postfix form of [`invariant_unwrap!`] for static messages:
/// `opt.or_invariant("what broke")`. Prefer the macro when the message
/// needs formatting (it formats lazily, only on failure).
pub trait OrInvariant {
    /// The success value.
    type Ok;
    /// Unwraps, panicking through [`invariant_violated!`] otherwise.
    fn or_invariant(self, what: &str) -> Self::Ok;
}

impl<F: IntoInvariant> OrInvariant for F {
    type Ok = <F as IntoInvariant>::Ok;
    fn or_invariant(self, what: &str) -> <F as IntoInvariant>::Ok {
        match self.into_invariant() {
            Ok(v) => v,
            Err(e) => crate::invariant_violated!("{what}{e}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::OrInvariant;

    #[test]
    #[should_panic(expected = "protocol invariant violated: queue empty")]
    fn or_invariant_none_panics() {
        let _: u32 = None::<u32>.or_invariant("queue empty");
    }
    #[test]
    fn invariant_holds_is_silent() {
        invariant!(1 + 1 == 2, "arithmetic {}", "broke");
        let v: u32 = invariant_unwrap!(Some(7), "missing");
        assert_eq!(v, 7);
        let r: u32 = invariant_unwrap!(Ok::<u32, String>(9), "bad");
        assert_eq!(r, 9);
    }

    #[test]
    #[should_panic(expected = "protocol invariant violated: count 3 exceeds bound 2")]
    fn invariant_failure_panics_with_prefix() {
        invariant!(3 <= 2, "count {} exceeds bound {}", 3, 2);
    }

    #[test]
    #[should_panic(expected = "protocol invariant violated: share index missing")]
    fn invariant_unwrap_none_panics() {
        let _: u32 = invariant_unwrap!(None::<u32>, "share index missing");
    }

    #[test]
    #[should_panic(expected = "protocol invariant violated: decode failed: boom")]
    fn invariant_unwrap_err_includes_error() {
        let _: u32 = invariant_unwrap!(Err::<u32, &str>("boom"), "decode failed");
    }
}
