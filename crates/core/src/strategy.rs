//! Strategy triples and validated network partitions.
//!
//! Definition 1 of the paper: "For layer i, its implementation strategy
//! is a triple `Cᵢ = ⟨gᵢ, algoᵢ, pᵢ⟩` \[...\]. Accordingly, a strategy for
//! an N-layer network is defined as a set `S = {Cᵢ | 1 ≤ i ≤ N}`."

use std::fmt;
use std::ops::Range;

use winofuse_fpga::engine::Algorithm;

use crate::CoreError;

/// The per-layer strategy triple `⟨group, algorithm, parallelism⟩`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LayerStrategy {
    /// Index of the fusion group this layer belongs to.
    pub group: usize,
    /// Convolution algorithm implementing the layer.
    pub algorithm: Algorithm,
    /// Hardware parallelism (compute units).
    pub parallelism: usize,
}

/// A full network strategy: one triple per layer, with group membership
/// forming a partition of `0..n` into consecutive runs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Strategy {
    layers: Vec<LayerStrategy>,
    groups: Vec<Range<usize>>,
}

impl Strategy {
    /// Builds and validates a strategy from per-layer triples.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidRequest`] when the group ids do not
    /// form consecutive runs numbered `0, 1, 2, …` or the list is empty.
    pub fn new(layers: Vec<LayerStrategy>) -> Result<Self, CoreError> {
        if layers.is_empty() {
            return Err(CoreError::InvalidRequest("strategy has no layers".into()));
        }
        let mut groups: Vec<Range<usize>> = Vec::new();
        for (i, ls) in layers.iter().enumerate() {
            match groups.len().checked_sub(1) {
                Some(g) if ls.group == g => {
                    groups[g].end = i + 1;
                }
                _ if ls.group == groups.len() => {
                    groups.push(i..i + 1);
                }
                _ => {
                    return Err(CoreError::InvalidRequest(format!(
                        "layer {i} has group {} but expected {} or {}",
                        ls.group,
                        groups.len().saturating_sub(1),
                        groups.len()
                    )))
                }
            }
        }
        Ok(Strategy { layers, groups })
    }

    /// Builds a strategy from group ranges plus per-layer (algorithm,
    /// parallelism) pairs.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidRequest`] when ranges do not tile
    /// `0..pairs.len()` in order.
    pub fn from_groups(
        groups: &[Range<usize>],
        pairs: &[(Algorithm, usize)],
    ) -> Result<Self, CoreError> {
        let mut layers = Vec::with_capacity(pairs.len());
        let mut expected = 0usize;
        for (g, range) in groups.iter().enumerate() {
            if range.start != expected || range.end <= range.start || range.end > pairs.len() {
                return Err(CoreError::InvalidRequest(format!(
                    "group ranges must tile the layer list; got {range:?} at position {g}"
                )));
            }
            expected = range.end;
            for i in range.clone() {
                layers.push(LayerStrategy {
                    group: g,
                    algorithm: pairs[i].0,
                    parallelism: pairs[i].1,
                });
            }
        }
        if expected != pairs.len() {
            return Err(CoreError::InvalidRequest(format!(
                "group ranges cover {expected} of {} layers",
                pairs.len()
            )));
        }
        Strategy::new(layers)
    }

    /// Per-layer triples.
    pub fn layers(&self) -> &[LayerStrategy] {
        &self.layers
    }

    /// Number of layers.
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// Whether the strategy is empty (never true for a validated value).
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }

    /// Fusion groups as consecutive layer ranges.
    pub fn groups(&self) -> &[Range<usize>] {
        &self.groups
    }

    /// Number of layers implemented with the (dense) Winograd algorithm.
    /// Sparse-Winograd layers count separately — see
    /// [`Strategy::sparse_winograd_layer_count`]; lumping them here would
    /// silently misreport the menu split in three-way plans.
    pub fn winograd_layer_count(&self) -> usize {
        self.layers
            .iter()
            .filter(|l| matches!(l.algorithm, Algorithm::Winograd { .. }))
            .count()
    }

    /// Number of layers implemented with the sparse Winograd algorithm.
    pub fn sparse_winograd_layer_count(&self) -> usize {
        self.layers
            .iter()
            .filter(|l| matches!(l.algorithm, Algorithm::SparseWinograd { .. }))
            .count()
    }

    /// Whether the strategy mixes algorithms (the heterogeneity the paper
    /// is named for): more than one distinct algorithm *kind* appears
    /// across the layers. With the menu now three entries deep, the old
    /// "some-but-not-all Winograd" test would miss a conventional+sparse
    /// mix entirely.
    pub fn is_heterogeneous(&self) -> bool {
        let first = self.layers[0].algorithm.tag();
        self.layers.iter().any(|l| l.algorithm.tag() != first)
    }
}

impl fmt::Display for Strategy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (g, range) in self.groups.iter().enumerate() {
            writeln!(f, "group {g}: layers {}..{}", range.start, range.end)?;
            for i in range.clone() {
                let l = &self.layers[i];
                writeln!(f, "  layer {i}: {} x{}", l.algorithm, l.parallelism)?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ls(group: usize, p: usize) -> LayerStrategy {
        LayerStrategy {
            group,
            algorithm: Algorithm::Conventional,
            parallelism: p,
        }
    }

    #[test]
    fn groups_recovered_from_ids() {
        let s = Strategy::new(vec![ls(0, 1), ls(0, 2), ls(1, 3), ls(2, 4), ls(2, 5)]).unwrap();
        assert_eq!(s.groups(), &[0..2, 2..3, 3..5]);
        assert_eq!(s.len(), 5);
    }

    #[test]
    fn rejects_non_consecutive_groups() {
        assert!(Strategy::new(vec![ls(0, 1), ls(2, 1)]).is_err());
        assert!(Strategy::new(vec![ls(1, 1)]).is_err());
        assert!(Strategy::new(vec![ls(0, 1), ls(1, 1), ls(0, 1)]).is_err());
        assert!(Strategy::new(vec![]).is_err());
    }

    #[test]
    fn from_groups_roundtrip() {
        let pairs = vec![
            (Algorithm::Conventional, 4),
            (Algorithm::winograd_f43(), 2),
            (Algorithm::Conventional, 8),
        ];
        let s = Strategy::from_groups(&[0..2, 2..3], &pairs).unwrap();
        assert_eq!(s.groups(), &[0..2, 2..3]);
        assert_eq!(s.layers()[1].algorithm, Algorithm::winograd_f43());
        assert!(s.is_heterogeneous());
        assert_eq!(s.winograd_layer_count(), 1);
    }

    #[test]
    #[allow(clippy::single_range_in_vec_init)] // single-group tilings are the point
    fn from_groups_validates_tiling() {
        let pairs = vec![(Algorithm::Conventional, 1); 3];
        assert!(Strategy::from_groups(&[0..2], &pairs).is_err()); // hole at end
        assert!(Strategy::from_groups(&[0..2, 1..3], &pairs).is_err()); // overlap
        assert!(Strategy::from_groups(&[1..3], &pairs).is_err()); // hole at start
        assert!(Strategy::from_groups(&[0..4], &pairs).is_err()); // overrun
    }

    #[test]
    #[allow(clippy::single_range_in_vec_init)] // single-group tilings are the point
    fn homogeneous_is_not_heterogeneous() {
        let pairs = vec![(Algorithm::Conventional, 1); 2];
        let s = Strategy::from_groups(&[0..2], &pairs).unwrap();
        assert!(!s.is_heterogeneous());
        let pairs = vec![(Algorithm::winograd_f43(), 1); 2];
        let s = Strategy::from_groups(&[0..2], &pairs).unwrap();
        assert!(!s.is_heterogeneous());
    }

    #[test]
    #[allow(clippy::single_range_in_vec_init)] // single-group tilings are the point
    fn sparse_layers_count_separately_and_mix_is_heterogeneous() {
        let pairs = vec![
            (Algorithm::Conventional, 1),
            (Algorithm::sparse_f43(250), 1),
        ];
        let s = Strategy::from_groups(&[0..2], &pairs).unwrap();
        assert!(s.is_heterogeneous());
        assert_eq!(s.winograd_layer_count(), 0);
        assert_eq!(s.sparse_winograd_layer_count(), 1);
        let pairs = vec![(Algorithm::sparse_f43(500), 1); 2];
        let s = Strategy::from_groups(&[0..2], &pairs).unwrap();
        assert!(!s.is_heterogeneous());
        assert_eq!(s.sparse_winograd_layer_count(), 2);
    }

    #[test]
    fn display_lists_groups() {
        let s = Strategy::new(vec![ls(0, 1), ls(1, 2)]).unwrap();
        let text = s.to_string();
        assert!(text.contains("group 0") && text.contains("group 1"));
    }
}
