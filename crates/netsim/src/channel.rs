//! The control-channel fault model: seeded, deterministic loss,
//! duplication, and reordering on the switch↔controller message channel.
//!
//! The paper's runtime (and this engine, until now) assumes the southbound
//! channel delivers every `Notify`/`Deliver` exactly once and in order.
//! [`ChannelModel`] withdraws that assumption on demand: each direction
//! carries independent per-mille drop/duplicate/reorder probabilities and
//! a jitter bound, and every per-message decision is a *pure hash* of
//! `(channel seed, direction, endpoint, per-endpoint message counter)` —
//! no stateful RNG anywhere on the path. That makes a message's fate a
//! function of who sent it and how many messages that endpoint sent
//! before, so a lossy run replays byte-identically, and the workload RNG
//! stream is untouched.
//!
//! Selected by `EDN_CHANNEL=ideal|lossy` (read once in `Engine::new`) or
//! pinned explicitly with `Engine::with_channel`. The `ideal` model
//! short-circuits at the call sites, so it is byte-identical to the
//! pre-fault-model engine.

/// Default seed for the env-selected lossy preset (`"EDN_CHANNL"` bytes —
/// any fixed constant works; explicit constructors pass their own).
const DEFAULT_SEED: u64 = 0x45444e5f4348414e;

/// Fault parameters for one direction of the control channel.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct DirModel {
    /// Per-mille probability a message is dropped outright.
    pub drop_pm: u32,
    /// Per-mille probability a message is duplicated (both copies travel,
    /// each with its own jitter).
    pub dup_pm: u32,
    /// Per-mille probability a copy is badly delayed (an extra four jitter
    /// bounds), which is what reorders it past later messages.
    pub reorder_pm: u32,
    /// Uniform per-copy jitter bound, in µs.
    pub jitter_us: u64,
}

impl DirModel {
    /// No faults at all in this direction?
    pub fn is_ideal(&self) -> bool {
        self.drop_pm == 0 && self.dup_pm == 0 && self.reorder_pm == 0 && self.jitter_us == 0
    }
}

/// The two-direction channel model plus its dedicated fault seed.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ChannelModel {
    /// Switch → controller (`Notify` events, including acks riding back).
    pub to_ctrl: DirModel,
    /// Controller → switch (`Deliver` events).
    pub to_switch: DirModel,
    /// Seed of the derived fault stream (independent of every other RNG).
    pub seed: u64,
}

impl Default for ChannelModel {
    fn default() -> ChannelModel {
        ChannelModel::ideal()
    }
}

/// Which direction a control message travels.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ChannelDir {
    /// Switch → controller.
    ToCtrl,
    /// Controller → switch.
    ToSwitch,
}

/// What the channel decided for one message: how many copies arrive and
/// each copy's extra delay. `copies == 0` means the message was dropped.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ChannelFate {
    /// Surviving copies (0 = dropped, 1 = normal, 2 = duplicated).
    pub copies: u8,
    /// Extra delay per copy, µs (index 1 unused when `copies < 2`).
    pub delay_us: [u64; 2],
    /// Was any copy given the reorder (bad-delay) treatment?
    pub reordered: bool,
}

impl ChannelFate {
    /// The ideal fate: one copy, no delay.
    pub const CLEAN: ChannelFate = ChannelFate { copies: 1, delay_us: [0, 0], reordered: false };
}

/// SplitMix64 finalizer: the pure hash behind every per-message decision.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e3779b97f4a7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

impl ChannelModel {
    /// The ideal channel: exactly-once, in-order, zero jitter — the
    /// engine's historical behaviour, byte for byte.
    pub fn ideal() -> ChannelModel {
        ChannelModel { to_ctrl: DirModel::default(), to_switch: DirModel::default(), seed: 0 }
    }

    /// The `EDN_CHANNEL=lossy` preset: moderate symmetric loss (6% drop,
    /// 3% duplication, 3% reorder, 40 µs jitter in both directions).
    pub fn lossy(seed: u64) -> ChannelModel {
        let dir = DirModel { drop_pm: 60, dup_pm: 30, reorder_pm: 30, jitter_us: 40 };
        ChannelModel { to_ctrl: dir, to_switch: dir, seed }
    }

    /// Parses an `EDN_CHANNEL` value (`ideal` or `lossy`); unset or empty
    /// means ideal.
    ///
    /// # Errors
    ///
    /// Returns the message to show the user for any other value.
    pub fn parse(value: Option<&str>) -> Result<ChannelModel, String> {
        match value {
            None | Some("" | "ideal") => Ok(ChannelModel::ideal()),
            Some("lossy") => Ok(ChannelModel::lossy(DEFAULT_SEED)),
            Some(v) => Err(format!("EDN_CHANNEL must be ideal|lossy, got {v:?}")),
        }
    }

    /// Reads the model from the `EDN_CHANNEL` environment variable (see
    /// [`parse`](ChannelModel::parse)).
    ///
    /// # Panics
    ///
    /// Panics if `EDN_CHANNEL` is set to anything else.
    pub fn from_env() -> ChannelModel {
        ChannelModel::parse(std::env::var("EDN_CHANNEL").ok().as_deref())
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// This model with a different fault seed.
    pub fn with_seed(self, seed: u64) -> ChannelModel {
        ChannelModel { seed, ..self }
    }

    /// Faultless in both directions? (The engine short-circuits every
    /// fault site on this, restoring the historical hot path.)
    pub fn is_ideal(&self) -> bool {
        self.to_ctrl.is_ideal() && self.to_switch.is_ideal()
    }

    /// The parameters governing `dir`.
    fn dir(&self, dir: ChannelDir) -> &DirModel {
        match dir {
            ChannelDir::ToCtrl => &self.to_ctrl,
            ChannelDir::ToSwitch => &self.to_switch,
        }
    }

    /// The fate of message number `counter` sent by `node` in direction
    /// `dir`: a pure function of the model and those identifiers.
    pub fn fate(&self, dir: ChannelDir, node: u64, counter: u64) -> ChannelFate {
        let m = self.dir(dir);
        if m.is_ideal() {
            return ChannelFate::CLEAN;
        }
        let salt = match dir {
            ChannelDir::ToCtrl => 0x6e6f_7469_6679,
            ChannelDir::ToSwitch => 0x6465_6c69_7665,
        };
        let base = mix(self.seed ^ salt).wrapping_add(mix(node).rotate_left(17)) ^ mix(counter);
        let roll_pm = |purpose: u64| (mix(base.wrapping_add(purpose)) % 1000) as u32;
        if roll_pm(1) < m.drop_pm {
            return ChannelFate { copies: 0, delay_us: [0, 0], reordered: false };
        }
        let copies = if roll_pm(2) < m.dup_pm { 2 } else { 1 };
        let mut delay_us = [0u64; 2];
        let mut reordered = false;
        for (i, d) in delay_us.iter_mut().enumerate().take(copies as usize) {
            let p = 10 + 2 * i as u64;
            if m.jitter_us > 0 {
                *d = mix(base.wrapping_add(p)) % m.jitter_us.saturating_add(1);
            }
            if roll_pm(p + 1) < m.reorder_pm {
                *d = d.saturating_add(m.jitter_us.max(1).saturating_mul(4));
                reordered = true;
            }
        }
        ChannelFate { copies, delay_us, reordered }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ideal_is_clean_everywhere() {
        let m = ChannelModel::ideal();
        assert!(m.is_ideal());
        for counter in 0..64 {
            assert_eq!(m.fate(ChannelDir::ToCtrl, 3, counter), ChannelFate::CLEAN);
            assert_eq!(m.fate(ChannelDir::ToSwitch, 3, counter), ChannelFate::CLEAN);
        }
    }

    #[test]
    fn fates_are_pure_functions_of_their_inputs() {
        let m = ChannelModel::lossy(42);
        for counter in 0..256 {
            let a = m.fate(ChannelDir::ToCtrl, 7, counter);
            let b = m.fate(ChannelDir::ToCtrl, 7, counter);
            assert_eq!(a, b, "same inputs, same fate");
        }
        // Different seeds disagree somewhere.
        let n = ChannelModel::lossy(43);
        assert!(
            (0..256).any(|c| m.fate(ChannelDir::ToCtrl, 7, c) != n.fate(ChannelDir::ToCtrl, 7, c)),
            "seeds must steer the fault pattern"
        );
        // Directions draw from independent streams.
        assert!(
            (0..256)
                .any(|c| m.fate(ChannelDir::ToCtrl, 7, c) != m.fate(ChannelDir::ToSwitch, 7, c)),
            "directions must draw independently"
        );
    }

    #[test]
    fn lossy_preset_actually_drops_dups_and_delays() {
        let m = ChannelModel::lossy(2016);
        let mut drops = 0;
        let mut dups = 0;
        let mut delayed = 0;
        for counter in 0..4000 {
            let f = m.fate(ChannelDir::ToCtrl, 1, counter);
            match f.copies {
                0 => drops += 1,
                2 => dups += 1,
                _ => {}
            }
            if f.copies > 0 && f.delay_us[0] > 0 {
                delayed += 1;
            }
        }
        assert!(drops > 100, "~6% of 4000 should drop, saw {drops}");
        assert!(dups > 40, "~3% should duplicate, saw {dups}");
        assert!(delayed > 1000, "jitter should delay most copies, saw {delayed}");
    }

    /// A draw is taken modulo `jitter_us + 1`, which overflows at
    /// `u64::MAX`: every fate path must still return there.
    #[test]
    fn fate_returns_at_the_largest_jitter_bound() {
        let dir = DirModel { drop_pm: 0, dup_pm: 1000, reorder_pm: 1000, jitter_us: u64::MAX };
        let m = ChannelModel { to_ctrl: dir, to_switch: dir, seed: 9 };
        for counter in 0..64 {
            let f = m.fate(ChannelDir::ToCtrl, 1, counter);
            assert_eq!(f.copies, 2);
            assert!(f.reordered);
        }
    }

    #[test]
    fn parse_reads_unset_empty_and_both_models_and_rejects_typos() {
        assert_eq!(ChannelModel::parse(None), Ok(ChannelModel::ideal()));
        assert_eq!(ChannelModel::parse(Some("")), Ok(ChannelModel::ideal()));
        assert_eq!(ChannelModel::parse(Some("ideal")), Ok(ChannelModel::ideal()));
        assert_eq!(ChannelModel::parse(Some("lossy")), Ok(ChannelModel::lossy(DEFAULT_SEED)));
        assert_eq!(
            ChannelModel::parse(Some("losy")),
            Err("EDN_CHANNEL must be ideal|lossy, got \"losy\"".to_string())
        );
    }
}
