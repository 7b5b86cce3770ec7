//! Pass: both arms discharge their obligation before touching state —
//! CbEcho verifies inline, AcEntry verifies inside the called handler.

impl Channel {
    fn handle_envelope(&mut self, from: PartyId, body: &Body) {
        match body {
            Body::CbEcho(share) => {
                if !self.verify_share(share) {
                    return;
                }
                self.echoes.insert(from, share.clone());
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
