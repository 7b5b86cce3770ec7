impl Wire for Probe {
    fn encode(&self, buf: &mut Vec<u8>) {
        buf.push(9); // lint:allow(wire-stability): deliberately malformed probe frame
    }
}
