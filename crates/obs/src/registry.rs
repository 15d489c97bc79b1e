//! The unified statistics registry.
//!
//! Components register `u64` counters (and end-of-run gauges) under
//! hierarchical dotted paths. Paths are unique — registering the same
//! path twice is a bug and panics loudly. A finished registry freezes
//! into a [`StatsSnapshot`], an insertion-ordered key→value view with
//! lookup, prefix aggregation and delta support.

use bvl_snap::{Snap, SnapError, SnapReader, SnapWriter};
use std::collections::HashMap;

/// A write-side registry of named counters.
///
/// ```
/// use bvl_obs::StatsRegistry;
/// let mut reg = StatsRegistry::new();
/// let mut sys = reg.scope("sys");
/// let mut l1d = sys.scope("little3.l1d");
/// l1d.set("misses", 41);
/// let snap = reg.snapshot();
/// assert_eq!(snap.get("sys.little3.l1d.misses"), Some(41));
/// ```
#[derive(Debug, Default)]
pub struct StatsRegistry {
    entries: Vec<(String, u64)>,
    index: HashMap<String, usize>,
}

impl StatsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        StatsRegistry::default()
    }

    /// Registers `value` under the full `path`.
    ///
    /// # Panics
    ///
    /// Panics if `path` was already registered — two components claiming
    /// the same path is a wiring bug, not a mergeable situation.
    pub fn set(&mut self, path: &str, value: u64) {
        if let Err(e) = self.try_set(path, value) {
            panic!("{e}");
        }
    }

    /// Fallible [`StatsRegistry::set`]: returns an error instead of
    /// panicking on a duplicate path. The property-test suite uses this
    /// to probe path-uniqueness without `catch_unwind`.
    pub fn try_set(&mut self, path: &str, value: u64) -> Result<(), String> {
        if self.index.contains_key(path) {
            return Err(format!("stats path `{path}` registered twice"));
        }
        self.index.insert(path.to_string(), self.entries.len());
        self.entries.push((path.to_string(), value));
        Ok(())
    }

    /// A sub-scope that prefixes every registered name with `prefix.`.
    pub fn scope(&mut self, prefix: &str) -> Scope<'_> {
        Scope {
            reg: self,
            prefix: prefix.to_string(),
        }
    }

    /// Number of registered paths.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether nothing has been registered yet.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Freezes the registry into an immutable snapshot.
    pub fn snapshot(self) -> StatsSnapshot {
        StatsSnapshot {
            entries: self.entries,
        }
    }
}

/// A prefixed view into a [`StatsRegistry`]; see [`StatsRegistry::scope`].
#[derive(Debug)]
pub struct Scope<'a> {
    reg: &'a mut StatsRegistry,
    prefix: String,
}

impl Scope<'_> {
    /// Registers `value` under `{prefix}.{name}`.
    ///
    /// # Panics
    ///
    /// Panics on a duplicate full path (see [`StatsRegistry::set`]).
    pub fn set(&mut self, name: &str, value: u64) {
        let path = format!("{}.{name}", self.prefix);
        self.reg.set(&path, value);
    }

    /// A deeper sub-scope `{prefix}.{sub}`.
    pub fn scope(&mut self, sub: &str) -> Scope<'_> {
        Scope {
            prefix: format!("{}.{sub}", self.prefix),
            reg: self.reg,
        }
    }

    /// The full dotted prefix of this scope.
    pub fn prefix(&self) -> &str {
        &self.prefix
    }
}

/// The frozen, insertion-ordered path→value view of one run's counters.
///
/// Equality is exact (path set, order and values), which is what the
/// skip-equivalence and determinism suites compare.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct StatsSnapshot {
    entries: Vec<(String, u64)>,
}

impl StatsSnapshot {
    /// Builds a snapshot directly from `(path, value)` pairs — the
    /// deserialization entry point (cache reload, tests).
    ///
    /// # Panics
    ///
    /// Panics on duplicate paths.
    pub fn from_entries(entries: Vec<(String, u64)>) -> Self {
        let mut reg = StatsRegistry::new();
        for (p, v) in entries {
            reg.set(&p, v);
        }
        reg.snapshot()
    }

    /// The value at `path`, if registered.
    pub fn get(&self, path: &str) -> Option<u64> {
        self.entries
            .iter()
            .find(|(p, _)| p == path)
            .map(|&(_, v)| v)
    }

    /// The value at `path`, defaulting to 0 when the component did not
    /// exist in this run (e.g. `sys.big.*` on `1L`).
    pub fn value(&self, path: &str) -> u64 {
        self.get(path).unwrap_or(0)
    }

    /// Sum of every entry whose path matches `prefix`…`suffix` — e.g.
    /// `sum_matching("sys.lane", ".cycles")` totals all lanes' cycles.
    /// An empty `prefix` or `suffix` matches everything on that side.
    pub fn sum_matching(&self, prefix: &str, suffix: &str) -> u64 {
        self.entries
            .iter()
            .filter(|(p, _)| p.starts_with(prefix) && p.ends_with(suffix))
            .map(|&(_, v)| v)
            .sum()
    }

    /// Paths matching `prefix`…`suffix`, in registration order.
    pub fn paths_matching(&self, prefix: &str, suffix: &str) -> Vec<&str> {
        self.entries
            .iter()
            .filter(|(p, _)| p.starts_with(prefix) && p.ends_with(suffix))
            .map(|(p, _)| p.as_str())
            .collect()
    }

    /// Per-path difference `self - earlier` (wrapping), keeping `self`'s
    /// path order. Paths absent from `earlier` count as 0 there.
    pub fn delta(&self, earlier: &StatsSnapshot) -> StatsSnapshot {
        StatsSnapshot {
            entries: self
                .entries
                .iter()
                .map(|(p, v)| (p.clone(), v.wrapping_sub(earlier.value(p))))
                .collect(),
        }
    }

    /// Weighted sum of several snapshots: every path present in any part
    /// appears in the result (first-appearance order), with value
    /// `round(Σ wᵢ·vᵢ)` treating absent paths as 0.
    ///
    /// This is how sampled simulation composes per-window counter
    /// snapshots into a whole-run estimate — each detailed window's
    /// counters are scaled by its stratum's extrapolation weight. The
    /// result is an *estimate*: rounding breaks the exact conservation
    /// laws, so sampled snapshots are never fed to the conservation
    /// checker.
    pub fn weighted_sum(parts: &[(&StatsSnapshot, f64)]) -> StatsSnapshot {
        let mut order: Vec<String> = Vec::new();
        let mut acc: HashMap<String, f64> = HashMap::new();
        for (snap, w) in parts {
            for (path, v) in snap.iter() {
                match acc.get_mut(path) {
                    Some(slot) => *slot += w * v as f64,
                    None => {
                        order.push(path.to_string());
                        acc.insert(path.to_string(), w * v as f64);
                    }
                }
            }
        }
        StatsSnapshot {
            entries: order
                .into_iter()
                .map(|p| {
                    let v = acc[&p].round().max(0.0) as u64;
                    (p, v)
                })
                .collect(),
        }
    }

    /// Iterates `(path, value)` in registration order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, u64)> + '_ {
        self.entries.iter().map(|&(ref p, v)| (p.as_str(), v))
    }

    /// Number of registered paths.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the snapshot is empty (e.g. [`StatsSnapshot::default`]).
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// JSON view for `bvl-client` output: `[[path, value], ...]` in
/// registration order.
impl serde::Serialize for StatsSnapshot {
    fn to_content(&self) -> serde::Content {
        serde::Serialize::to_content(&self.entries)
    }
}

/// Order-preserving binary codec for the sweep-fabric wire protocol and
/// the result store's entries.
///
/// Entries round-trip in registration order so a decoded snapshot is
/// `Eq`-identical to the original (the fabric's byte-identity contract).
/// Unlike [`StatsSnapshot::from_entries`], which panics on duplicate
/// paths (an in-process wiring bug), `load` runs on wire bytes that may
/// be hostile or corrupt, so a duplicate path decodes as
/// [`SnapError::Corrupt`] instead of panicking.
impl Snap for StatsSnapshot {
    fn save(&self, w: &mut SnapWriter) {
        w.usize(self.entries.len());
        for (path, v) in &self.entries {
            w.str(path);
            w.u64(*v);
        }
    }

    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        // Each entry is at least an 8-byte path-length prefix plus an
        // 8-byte value.
        let n = r.len(16)?;
        let mut entries = Vec::with_capacity(n);
        let mut seen = std::collections::HashSet::with_capacity(n);
        for _ in 0..n {
            let path = r.str()?;
            let v = r.u64()?;
            if !seen.insert(path.clone()) {
                return Err(SnapError::Corrupt {
                    what: format!("stats path `{path}` appears twice"),
                });
            }
            entries.push((path, v));
        }
        Ok(StatsSnapshot { entries })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scoped_paths_compose() {
        let mut reg = StatsRegistry::new();
        let mut sys = reg.scope("sys");
        sys.set("uncore_cycles", 7);
        let mut l2 = sys.scope("l2");
        l2.set("misses", 3);
        let snap = reg.snapshot();
        assert_eq!(snap.get("sys.uncore_cycles"), Some(7));
        assert_eq!(snap.get("sys.l2.misses"), Some(3));
        assert_eq!(snap.get("sys.l2.hits"), None);
        assert_eq!(snap.value("sys.l2.hits"), 0);
    }

    #[test]
    #[should_panic(expected = "registered twice")]
    fn duplicate_path_panics() {
        let mut reg = StatsRegistry::new();
        reg.set("a.b", 1);
        reg.set("a.b", 2);
    }

    #[test]
    fn sum_matching_aggregates() {
        let mut reg = StatsRegistry::new();
        reg.set("sys.lane0.cycles", 10);
        reg.set("sys.lane1.cycles", 20);
        reg.set("sys.lane1.retired", 5);
        reg.set("sys.l2.cycles", 99);
        let snap = reg.snapshot();
        assert_eq!(snap.sum_matching("sys.lane", ".cycles"), 30);
        assert_eq!(snap.paths_matching("sys.lane", ".cycles").len(), 2);
    }

    #[test]
    fn weighted_sum_unions_paths_and_rounds() {
        let a = StatsSnapshot::from_entries(vec![("x".into(), 10), ("y".into(), 1)]);
        let b = StatsSnapshot::from_entries(vec![("x".into(), 20), ("z".into(), 4)]);
        let s = StatsSnapshot::weighted_sum(&[(&a, 0.5), (&b, 2.0)]);
        assert_eq!(s.get("x"), Some(45));
        assert_eq!(s.get("y"), Some(1)); // 0.5 rounds half-away-from-zero
        assert_eq!(s.get("z"), Some(8));
        // First-appearance order is preserved.
        let paths: Vec<&str> = s.iter().map(|(p, _)| p).collect();
        assert_eq!(paths, ["x", "y", "z"]);
    }

    #[test]
    fn snap_round_trip_preserves_order() {
        let mut reg = StatsRegistry::new();
        reg.set("sys.z", 3);
        reg.set("sys.a", u64::MAX);
        reg.set("sys.m", 0);
        let snap = reg.snapshot();
        let mut w = SnapWriter::new();
        snap.save(&mut w);
        let bytes = w.into_bytes();
        let got = StatsSnapshot::load(&mut SnapReader::new(&bytes)).unwrap();
        assert_eq!(got, snap);
        let paths: Vec<&str> = got.iter().map(|(p, _)| p).collect();
        assert_eq!(paths, ["sys.z", "sys.a", "sys.m"]);
    }

    #[test]
    fn snap_load_rejects_duplicate_paths() {
        // Hand-build wire bytes with the same path twice: on hostile
        // input this must be a typed error, not the from_entries panic.
        let mut w = SnapWriter::new();
        w.usize(2);
        w.str("sys.dup");
        w.u64(1);
        w.str("sys.dup");
        w.u64(2);
        let bytes = w.into_bytes();
        assert!(matches!(
            StatsSnapshot::load(&mut SnapReader::new(&bytes)),
            Err(SnapError::Corrupt { .. })
        ));
    }

    #[test]
    fn delta_subtracts_per_path() {
        let a = StatsSnapshot::from_entries(vec![("x".into(), 3), ("y".into(), 10)]);
        let b = StatsSnapshot::from_entries(vec![("x".into(), 5), ("y".into(), 10)]);
        let d = b.delta(&a);
        assert_eq!(d.get("x"), Some(2));
        assert_eq!(d.get("y"), Some(0));
    }
}
