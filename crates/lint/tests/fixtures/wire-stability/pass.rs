const TAG_DATA: u8 = 3;

impl Wire for Frame {
    fn encode(&self, buf: &mut Vec<u8>) {
        buf.push(TAG_DATA);
        put_len(buf, self.payload.len());
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match r.u8()? {
            TAG_DATA => Ok(Frame::Data),
            d => Err(WireError::BadDiscriminant(d)),
        }
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn truncation_fixture_is_exempt() {
        let mut buf = Vec::new();
        buf.push(3);
        let n = buf.len() as u32;
        assert_eq!(n, 1);
    }
}

// A declaration names its tags; a tuple struct names its fields by index.
wire_enum!(Kind {
    TAG_DATA => Data { payload: Vec<u8> },
});
wire_struct!(Id { 0: usize });
wire_struct!(Batch { items: Vec<Id> [max 1024] });
