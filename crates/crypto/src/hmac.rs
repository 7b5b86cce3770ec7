//! HMAC-SHA-256 message authentication (RFC 2104), used for SINTRA's
//! point-to-point link authentication (the paper uses HMAC with a 128-bit
//! key per server pair).

use crate::hash::Sha256;

/// Length of an HMAC-SHA-256 tag in bytes.
pub const TAG_LEN: usize = 32;

/// An HMAC-SHA-256 key, keyed once: it holds the hash states after the
/// inner and outer pad blocks, so a tag costs the message's blocks plus
/// two.
///
/// ```
/// use sintra_crypto::hmac::HmacKey;
///
/// let key = HmacKey::new(b"shared pairwise key".to_vec());
/// let tag = key.sign(b"message");
/// assert!(key.verify(b"message", &tag));
/// assert!(!key.verify(b"tampered", &tag));
/// ```
#[derive(Debug, Clone)]
pub struct HmacKey {
    key: Vec<u8>,
    /// SHA-256 after absorbing `key ^ ipad`.
    inner: Sha256,
    /// SHA-256 after absorbing `key ^ opad`.
    outer: Sha256,
}

impl HmacKey {
    /// Creates a key; a key longer than the 64-byte block is hashed first.
    pub fn new(key: Vec<u8>) -> Self {
        let mut block = [0u8; 64];
        if key.len() > block.len() {
            block[..32].copy_from_slice(&Sha256::digest(&key));
        } else {
            block[..key.len()].copy_from_slice(&key);
        }
        let keyed = |pad: u8| {
            let mut h = Sha256::new();
            h.update(&block.map(|b| b ^ pad));
            h
        };
        HmacKey {
            inner: keyed(0x36),
            outer: keyed(0x5c),
            key,
        }
    }

    /// Computes the HMAC tag of `message`.
    pub fn sign(&self, message: &[u8]) -> [u8; TAG_LEN] {
        let mut inner = self.inner.clone();
        inner.update(message);
        let mut outer = self.outer.clone();
        outer.update(&inner.finalize());
        outer.finalize()
    }

    /// Verifies a tag in constant time with respect to tag contents.
    pub fn verify(&self, message: &[u8], tag: &[u8]) -> bool {
        let expected = self.sign(message);
        if expected.len() != tag.len() {
            return false;
        }
        // Constant-time comparison.
        expected
            .iter()
            .zip(tag.iter())
            .fold(0u8, |acc, (a, b)| acc | (a ^ b))
            == 0
    }
}

/// Two keys are equal when their key bytes are.
impl PartialEq for HmacKey {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}

impl Eq for HmacKey {}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    #[test]
    fn rfc4231_test_case_1() {
        // HMAC-SHA-256, key = 0x0b * 20, data = "Hi There".
        let key = HmacKey::new(vec![0x0b; 20]);
        assert_eq!(
            hex(&key.sign(b"Hi There")),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
        );
    }

    #[test]
    fn rfc4231_test_case_2() {
        let key = HmacKey::new(b"Jefe".to_vec());
        assert_eq!(
            hex(&key.sign(b"what do ya want for nothing?")),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
        );
    }

    #[test]
    fn rfc4231_test_case_3() {
        // Key 0xaa * 20, data 0xdd * 50: a message that is not text.
        let key = HmacKey::new(vec![0xaa; 20]);
        assert_eq!(
            hex(&key.sign(&[0xdd; 50])),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe"
        );
    }

    #[test]
    fn rfc4231_test_case_4() {
        // Key 0x01..=0x19, data 0xcd * 50.
        let key = HmacKey::new((0x01..=0x19).collect());
        assert_eq!(
            hex(&key.sign(&[0xcd; 50])),
            "82558a389a443c0ea4cc819899f2083a85f0faa3e578f8077a2e3ff46729665b"
        );
    }

    #[test]
    fn rfc4231_long_key() {
        // Test case 6: key longer than the block size gets hashed first.
        let key = HmacKey::new(vec![0xaa; 131]);
        assert_eq!(
            hex(&key.sign(b"Test Using Larger Than Block-Size Key - Hash Key First")),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"
        );
    }

    #[test]
    fn rfc4231_test_case_7() {
        // A hashed long key and a message longer than one block.
        let key = HmacKey::new(vec![0xaa; 131]);
        let message: &[u8] = b"This is a test using a larger than block-size key and a \
            larger than block-size data. The key needs to be hashed before being used by \
            the HMAC algorithm.";
        assert_eq!(
            hex(&key.sign(message)),
            "9b09ffa71b942fcb27635fbcd5b0e944bfdc63644f0713938a7f51535c3a35e2"
        );
    }

    #[test]
    fn verify_rejects_wrong_length_and_bitflips() {
        let key = HmacKey::new(b"k".to_vec());
        let mut tag = key.sign(b"msg");
        assert!(key.verify(b"msg", &tag));
        tag[0] ^= 1;
        assert!(!key.verify(b"msg", &tag));
        assert!(!key.verify(b"msg", &tag[..31]));
    }

    #[test]
    fn different_keys_different_tags() {
        let k1 = HmacKey::new(b"key-one".to_vec());
        let k2 = HmacKey::new(b"key-two".to_vec());
        assert_ne!(k1.sign(b"m"), k2.sign(b"m"));
        assert_ne!(k1, k2);
        assert_eq!(k1, HmacKey::new(b"key-one".to_vec()));
    }
}
