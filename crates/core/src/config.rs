//! Per-party protocol context: group parameters and key material.

use std::fmt;
use std::sync::Arc;

use sintra_crypto::dealer::PartyKeys;

use crate::ids::PartyId;

/// Everything a protocol instance needs to know about its environment:
/// the group size, resilience, this party's identity and key material.
///
/// Cheaply cloneable (`Arc` inside); every instance hosted by a party
/// shares one context. Its `Debug` shows who the party is and nothing it
/// was dealt: every instance prints its context.
#[derive(Clone)]
pub struct GroupContext {
    keys: Arc<PartyKeys>,
}

impl fmt::Debug for GroupContext {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("GroupContext")
            .field("me", &self.me())
            .field("n", &self.n())
            .field("t", &self.fault_budget())
            .finish()
    }
}

impl GroupContext {
    /// Wraps dealt key material.
    pub fn new(keys: Arc<PartyKeys>) -> Self {
        GroupContext { keys }
    }

    /// This party's identity.
    pub fn me(&self) -> PartyId {
        PartyId(self.keys.index)
    }

    /// Group size `n`.
    pub fn n(&self) -> usize {
        self.keys.n()
    }

    /// The Byzantine quorum `⌈(n + t + 1) / 2⌉` used by both broadcast
    /// primitives (any two quorums intersect in an honest party).
    ///
    /// All threshold arithmetic lives in this file so protocol code
    /// never spells out `n`/`t` expressions inline. There is no `t()`
    /// accessor to write `t + 1` with: the corruption bound leaves this
    /// type only as [`fault_budget`](Self::fault_budget). Arithmetic on
    /// `n()`, which sizing and indexing still need, is left to review.
    pub fn quorum(&self) -> usize {
        (self.n() + self.keys.t() + 1).div_ceil(2)
    }

    /// `n - t`: the number of messages a party can wait for without
    /// risking deadlock (paper §2: up to `t` parties may never answer).
    pub fn n_minus_t(&self) -> usize {
        self.n() - self.keys.t()
    }

    /// `t + 1`: the smallest set of parties guaranteed to contain at
    /// least one honest member. Used wherever a single honest witness
    /// suffices — echo amplification, close requests, complaints.
    pub fn one_honest(&self) -> usize {
        self.keys.t() + 1
    }

    /// `t`: the corruption budget itself, for "strictly more than the
    /// faulty parties could produce alone" comparisons
    /// (`count > fault_budget()` is equivalent to `count >= one_honest()`).
    pub fn fault_budget(&self) -> usize {
        self.keys.t()
    }

    /// `2t + 1`: Bracha's ready quorum. A set of `2t + 1` ready senders
    /// contains `t + 1` honest ones, enough to make every honest party
    /// eventually ready, so delivery at this bound is irrevocable.
    pub fn ready_quorum(&self) -> usize {
        2 * self.keys.t() + 1
    }

    /// The atomic-channel batch size `n - f + 1` that guarantees
    /// `f`-fairness for a fairness parameter `t + 1 <= f <= n - t`
    /// (paper §2.6): any batch assembled from `n - t` received entry
    /// sets intersects the queues of at least `f` honest parties.
    pub fn fairness_batch(&self, f: usize) -> usize {
        self.n() - f + 1
    }

    /// Access to this party's key material.
    pub fn keys(&self) -> &PartyKeys {
        &self.keys
    }

    /// Iterator over all party identities.
    pub fn parties(&self) -> impl Iterator<Item = PartyId> {
        (0..self.n()).map(PartyId)
    }

    /// Whether `id` is a valid party index in this group.
    pub fn is_valid_party(&self, id: PartyId) -> bool {
        id.0 < self.n()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sintra_crypto::dealer::{deal, DealerConfig};

    #[test]
    fn quorum_arithmetic() {
        let mut rng = StdRng::seed_from_u64(1);
        let parties = deal(&DealerConfig::small(4, 1), &mut rng).unwrap();
        let ctx = GroupContext::new(Arc::new(parties[2].clone()));
        assert_eq!(ctx.me(), PartyId(2));
        assert_eq!(ctx.n(), 4);
        assert_eq!(ctx.quorum(), 3);
        assert_eq!(ctx.n_minus_t(), 3);
        assert_eq!(ctx.one_honest(), 2);
        assert_eq!(ctx.fault_budget(), 1);
        assert_eq!(ctx.ready_quorum(), 3);
        assert_eq!(ctx.fairness_batch(3), 2);
        assert_eq!(ctx.fairness_batch(2), 3);
        assert_eq!(ctx.parties().count(), 4);
        assert!(ctx.is_valid_party(PartyId(3)));
        assert!(!ctx.is_valid_party(PartyId(4)));
    }

    #[test]
    fn debug_shows_the_party_and_nothing_it_was_dealt() {
        let mut rng = StdRng::seed_from_u64(1);
        let parties = deal(&DealerConfig::small(4, 1), &mut rng).unwrap();
        let ctx = GroupContext::new(Arc::new(parties[2].clone()));
        let shown = format!("{ctx:?}");
        for prime in ctx.keys().sig_key.primes() {
            assert!(!shown.contains(&format!("{prime:x}")), "{shown}");
        }
        assert_eq!(shown, "GroupContext { me: PartyId(2), n: 4, t: 1 }");
    }
}
