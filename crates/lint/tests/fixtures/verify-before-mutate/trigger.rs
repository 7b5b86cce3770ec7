//! Trigger: the CbEcho arm files the echo share *before* checking it —
//! the forged-share flood the verify-before-mutate rule exists to catch.
//! The AcEntry arm (via `on_entry`) is compliant and must stay silent.

impl Channel {
    fn handle_envelope(&mut self, from: PartyId, body: &Body) {
        match body {
            Body::CbEcho(share) => {
                self.echoes.insert(from, share.clone());
                if !self.verify_share(share) {
                    self.echoes.remove(&from);
                }
            }
            Body::AcEntry { round, entry } => self.on_entry(from, *round, entry),
        }
    }

    fn on_entry(&mut self, from: PartyId, round: u64, entry: &Entry) {
        if !self.verify_party_sig(from, entry) {
            return;
        }
        self.entries.entry(round).or_default().push(entry.clone());
    }
}
