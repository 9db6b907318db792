//! A minimal FxHash-style hasher for the workspace's hot integer-keyed
//! maps (egress resolution, per-switch state slots).
//!
//! The keys at those sites are small tuples of integers probed once or
//! twice per simulated hop; SipHash's setup cost dominates at that grain.
//! This mixer folds each integer write with a rotate-xor-multiply round —
//! the same shape rustc's FxHasher uses — which is plenty for keys that
//! are not attacker-chosen. Do **not** use it for keys an adversary can
//! pick.
//!
//! [`Distinct`] builds a value once per distinct key, finding candidates by
//! a fingerprint and deciding by comparison.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::Arc;

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

/// "No entry": the end of a [`Distinct`] candidate list.
const NONE: u32 = u32::MAX;

/// Values built once per distinct key, and shared: the compiled tables of
/// switches that test the same patterns share one lookup layout, and the
/// checker's switches one set of entries. A candidate is the value the
/// previous call returned — callers come in topology order, where most
/// keys repeat their predecessor's — or one found by the key's fingerprint,
/// and it is taken only if the caller's comparison accepts its key: a
/// fingerprint alone may collide, and would hand one caller another's
/// value.
#[derive(Debug)]
pub struct Distinct<K, V> {
    /// Fingerprint → the last value built under it.
    heads: HashMap<u64, u32, FxBuildHasher>,
    /// Each key, its value, and the value built before it under the same
    /// fingerprint ([`NONE`] for none).
    built: Vec<(K, Arc<V>, u32)>,
    /// The value the previous call returned.
    last: usize,
}

impl<K, V> Default for Distinct<K, V> {
    fn default() -> Distinct<K, V> {
        Distinct { heads: HashMap::default(), built: Vec::new(), last: 0 }
    }
}

impl<K, V> Distinct<K, V> {
    /// The value of the first key `same` accepts, or — if none does — the
    /// key and value `build` returns, kept for later calls. `fingerprint`
    /// must give equal fingerprints for every two keys `same` equates; it
    /// is not called when the previous call's key is accepted.
    pub fn get_or_build(
        &mut self,
        same: impl Fn(&K) -> bool,
        fingerprint: impl FnOnce() -> u64,
        build: impl FnOnce() -> (K, V),
    ) -> Arc<V> {
        if !self.built.get(self.last).is_some_and(|(key, _, _)| same(key)) {
            let head = self.heads.entry(fingerprint()).or_insert(NONE);
            let mut at = *head;
            while at != NONE && !same(&self.built[at as usize].0) {
                at = self.built[at as usize].2;
            }
            if at == NONE {
                let (key, value) = build();
                self.built.push((key, Arc::new(value), *head));
                at = (self.built.len() - 1) as u32;
                *head = at;
            }
            self.last = at as usize;
        }
        Arc::clone(&self.built[self.last].1)
    }

    /// How many distinct values have been built.
    pub fn len(&self) -> usize {
        self.built.len()
    }

    /// Returns `true` if nothing has been built.
    pub fn is_empty(&self) -> bool {
        self.built.is_empty()
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
