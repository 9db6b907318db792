//! A minimal FxHash-style hasher for the workspace's hot integer-keyed
//! maps (egress resolution, per-switch state slots).
//!
//! The keys at those sites are small tuples of integers probed once or
//! twice per simulated hop; SipHash's setup cost dominates at that grain.
//! This mixer folds each integer write with a rotate-xor-multiply round —
//! the same shape rustc's FxHasher uses — which is plenty for keys that
//! are not attacker-chosen. Do **not** use it for keys an adversary can
//! pick.

use std::hash::{BuildHasherDefault, Hasher};

/// `BuildHasher` for [`FxHasher`].
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// See the module docs.
#[derive(Clone, Debug, Default)]
pub struct FxHasher(u64);

impl Hasher for FxHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(b as u64);
        }
    }

    fn write_u32(&mut self, n: u32) {
        self.write_u64(n as u64);
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0.rotate_left(26) ^ n).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::BuildHasher;

    #[test]
    fn distinguishes_field_order_and_values() {
        let hash = |t: &(u64, u64)| FxBuildHasher::default().hash_one(t);
        assert_ne!(hash(&(1, 2)), hash(&(2, 1)));
        assert_ne!(hash(&(0, 0)), hash(&(0, 1)));
        assert_eq!(hash(&(7, 9)), hash(&(7, 9)));
    }
}
