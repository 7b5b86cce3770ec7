//! One in-memory network for driving a group of instances by hand.
//!
//! Tests, benches and drills run `n` protocol instances side by side and
//! deliver what they send to each other. A [`Pump`] holds only the
//! deliveries in flight; the caller keeps its instances, so it can read
//! their state between any two deliveries. A [`Choice`] fixes the order.
//! Dropping, holding back and Byzantine injection stay with the caller:
//! it takes the next delivery with [`Pump::next`] and skips it, keeps it
//! or answers it before handing the rest to [`Pump::deliver`].

use std::collections::VecDeque;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::ids::PartyId;
use crate::message::Envelope;
use crate::outgoing::{Outgoing, Recipient};

/// How a [`Pump`] picks the next delivery.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Choice {
    /// The oldest pending delivery: send order, and a broadcast in
    /// ascending recipient order.
    Fifo,
    /// A uniformly random pending delivery, drawn from a `StdRng` seeded
    /// with this value, whose place the newest one takes: the
    /// asynchronous adversary's free hand over delivery order.
    Seeded(u64),
}

/// One message on its way from one party to another.
#[derive(Debug, Clone)]
pub struct Delivery {
    /// The sender's index.
    pub from: usize,
    /// The recipient's index.
    pub to: usize,
    /// The message.
    pub env: Envelope,
}

/// [`Pump::run`] handled `limit` deliveries and more were still in flight.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Overrun {
    /// The number of deliveries handled.
    pub limit: usize,
}

/// The deliveries in flight between parties `0..n`.
#[derive(Debug)]
pub struct Pump {
    n: usize,
    pending: VecDeque<Delivery>,
    rng: Option<StdRng>,
}

impl Pump {
    /// An empty network between parties `0..n`.
    pub fn new(n: usize, choice: Choice) -> Self {
        let rng = match choice {
            Choice::Fifo => None,
            Choice::Seeded(seed) => Some(StdRng::seed_from_u64(seed)),
        };
        Pump {
            n,
            pending: VecDeque::new(),
            rng,
        }
    }

    /// Queues everything party `from` sent into `out`, draining it: a
    /// message to all parties once per recipient, in ascending order.
    pub fn push(&mut self, from: usize, out: &mut Outgoing) {
        for (recipient, env) in out.drain() {
            let targets = match recipient {
                Recipient::All => 0..self.n,
                Recipient::One(p) => p.0..p.0 + 1,
            };
            self.pending.extend(targets.map(|to| Delivery {
                from,
                to,
                env: env.clone(),
            }));
        }
    }

    /// Whether nothing is in flight.
    pub fn is_empty(&self) -> bool {
        self.pending.is_empty()
    }

    /// Hands `d` to its recipient among `parties` and queues what it
    /// sends in response.
    pub fn deliver<C>(
        &mut self,
        parties: &mut [C],
        d: Delivery,
        mut handle: impl FnMut(&mut C, PartyId, &Envelope, &mut Outgoing),
    ) {
        let mut out = Outgoing::new();
        handle(&mut parties[d.to], PartyId(d.from), &d.env, &mut out);
        self.push(d.to, &mut out);
    }

    /// Delivers until nothing is in flight and returns the number of
    /// deliveries handled, or [`Overrun`] once `limit` are handled and
    /// more are pending.
    pub fn run<C>(
        &mut self,
        parties: &mut [C],
        mut handle: impl FnMut(&mut C, PartyId, &Envelope, &mut Outgoing),
        limit: usize,
    ) -> Result<usize, Overrun> {
        let mut handled = 0;
        while let Some(d) = self.next() {
            if handled == limit {
                return Err(Overrun { limit });
            }
            handled += 1;
            self.deliver(parties, d, &mut handle);
        }
        Ok(handled)
    }
}

impl Iterator for Pump {
    type Item = Delivery;

    /// Takes the next delivery out of the network, as the [`Choice`]
    /// picks it.
    fn next(&mut self) -> Option<Delivery> {
        match &mut self.rng {
            None => self.pending.pop_front(),
            Some(_) if self.pending.is_empty() => None,
            Some(rng) => {
                let idx = rng.gen_range(0..self.pending.len());
                self.pending.swap_remove_back(idx)
            }
        }
    }
}

impl Extend<(usize, Outgoing)> for Pump {
    /// Pushes what each party sent, in order.
    fn extend<I: IntoIterator<Item = (usize, Outgoing)>>(&mut self, sends: I) {
        for (from, mut out) in sends {
            self.push(from, &mut out);
        }
    }
}
