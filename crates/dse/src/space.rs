//! Quantized output spaces and label codecs (paper Fig. 8).
//!
//! Formulating DSE as classification requires a *finite, enumerable* output
//! space with a stable `config ID <-> parameters` bijection. Each case study
//! gets a `*Space` type owning that bijection:
//!
//! | space | parameters | size (paper) |
//! |-------|------------|--------------|
//! | [`Case1Space`] | array rows, cols, dataflow | 459 (budget 2^18) |
//! | [`Case2Space`] | 3 buffer sizes, 100 KB steps | 1000 |
//! | [`Case3Space`] | workload permutation + per-array dataflow | 1944 (4 arrays) |

use airchitect_sim::{ArrayConfig, Dataflow};
use serde::{Deserialize, Serialize};

/// Output space of case study 1: every power-of-two array shape within a MAC
/// budget, crossed with the three dataflows.
///
/// Label layout: `label = shape_index · 3 + dataflow_index`, with shapes in
/// the row-major order produced by [`ArrayConfig::enumerate_pow2`].
///
/// # Example
///
/// ```
/// use airchitect_dse::space::Case1Space;
///
/// let space = Case1Space::new(1 << 18);
/// assert_eq!(space.len(), 459); // the paper's output-space size
/// let (array, df) = space.decode(0).expect("label 0 exists");
/// assert_eq!(space.encode(array, df), Some(0));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Case1Space {
    mac_budget: u64,
    shapes: Vec<ArrayConfig>,
}

impl Case1Space {
    /// Enumerates the space for `mac_budget` total MAC units.
    pub fn new(mac_budget: u64) -> Self {
        Self {
            mac_budget,
            shapes: ArrayConfig::enumerate_pow2(mac_budget),
        }
    }

    /// The MAC budget the space was enumerated for.
    pub fn mac_budget(&self) -> u64 {
        self.mac_budget
    }

    /// Recovers the space from its label count (`3·(n−1)·n/2` labels for a
    /// `2^n` budget). Returns `None` if `len` is not a valid size.
    ///
    /// Labels are only meaningful inside the exact space they were produced
    /// in — enumeration order changes with the budget — so persisted models
    /// must rebuild their space from the class count, not from a guess.
    pub fn from_len(len: usize) -> Option<Self> {
        (2..=63u32)
            .map(|n| Case1Space::new(1u64 << n))
            .find(|s| s.len() == len)
    }

    /// Number of labels (`shapes · 3`).
    pub fn len(&self) -> usize {
        self.shapes.len() * 3
    }

    /// Whether the space is empty (budget below 4 MACs).
    pub fn is_empty(&self) -> bool {
        self.shapes.is_empty()
    }

    /// The enumerated shapes.
    pub fn shapes(&self) -> &[ArrayConfig] {
        &self.shapes
    }

    /// Decodes a label into `(array, dataflow)`.
    pub fn decode(&self, label: u32) -> Option<(ArrayConfig, Dataflow)> {
        let shape = self.shapes.get(label as usize / 3)?;
        let df = Dataflow::from_index(label as usize % 3)?;
        Some((*shape, df))
    }

    /// Encodes `(array, dataflow)` into a label.
    pub fn encode(&self, array: ArrayConfig, dataflow: Dataflow) -> Option<u32> {
        let idx = self.shapes.iter().position(|&s| s == array)?;
        Some((idx * 3 + dataflow.index()) as u32)
    }

    /// Iterates `(label, array, dataflow)` over the whole space.
    pub fn iter(&self) -> impl Iterator<Item = (u32, ArrayConfig, Dataflow)> + '_ {
        self.shapes.iter().enumerate().flat_map(|(i, &shape)| {
            Dataflow::ALL
                .iter()
                .map(move |&df| ((i * 3 + df.index()) as u32, shape, df))
        })
    }
}

/// Output space of case study 2: three buffer sizes, each quantized to
/// `steps` multiples of `step_kb` (paper: 10 steps of 100 KB = 1000 labels).
///
/// Label layout: `label = i · steps² + f · steps + o` where `i`, `f`, `o`
/// index the IFMAP, Filter, and OFMAP sizes (`size = (index + 1) · step_kb`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Case2Space {
    step_kb: u64,
    steps: u32,
}

impl Case2Space {
    /// The paper's space: 100 KB steps up to 1 MB.
    pub fn paper() -> Self {
        Self {
            step_kb: 100,
            steps: 10,
        }
    }

    /// A custom quantization.
    ///
    /// # Panics
    ///
    /// Panics if `step_kb` or `steps` is zero.
    pub fn new(step_kb: u64, steps: u32) -> Self {
        assert!(step_kb > 0, "step_kb must be positive");
        assert!(steps > 0, "steps must be positive");
        Self { step_kb, steps }
    }

    /// Quantization step in KB.
    pub fn step_kb(&self) -> u64 {
        self.step_kb
    }

    /// Steps per buffer.
    pub fn steps(&self) -> u32 {
        self.steps
    }

    /// Number of labels (`steps³`).
    pub fn len(&self) -> usize {
        (self.steps as usize).pow(3)
    }

    /// Always false: the constructor enforces at least one step.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Decodes a label into `(ifmap_kb, filter_kb, ofmap_kb)`.
    pub fn decode(&self, label: u32) -> Option<(u64, u64, u64)> {
        if label as usize >= self.len() {
            return None;
        }
        let s = self.steps;
        let o = label % s;
        let f = (label / s) % s;
        let i = label / (s * s);
        Some((
            (i as u64 + 1) * self.step_kb,
            (f as u64 + 1) * self.step_kb,
            (o as u64 + 1) * self.step_kb,
        ))
    }

    /// Encodes buffer sizes (KB) into a label; sizes must be exact multiples
    /// of the step within range.
    pub fn encode(&self, ifmap_kb: u64, filter_kb: u64, ofmap_kb: u64) -> Option<u32> {
        let idx = |kb: u64| -> Option<u32> {
            if kb == 0 || !kb.is_multiple_of(self.step_kb) {
                return None;
            }
            let i = (kb / self.step_kb - 1) as u32;
            (i < self.steps).then_some(i)
        };
        let (i, f, o) = (idx(ifmap_kb)?, idx(filter_kb)?, idx(ofmap_kb)?);
        Some(i * self.steps * self.steps + f * self.steps + o)
    }

    /// Iterates `(label, ifmap_kb, filter_kb, ofmap_kb)` over the space.
    pub fn iter(&self) -> impl Iterator<Item = (u32, u64, u64, u64)> + '_ {
        (0..self.len() as u32).map(|l| {
            let (i, f, o) = self.decode(l).expect("label < len");
            (l, i, f, o)
        })
    }
}

/// Output space of case study 3: an assignment of `x` workloads to `x`
/// arrays (a permutation) plus a dataflow per array.
///
/// Label layout: `label = perm_index · 3^x + dataflow_code`, with
/// permutations in lexicographic order and `dataflow_code` a base-3 number
/// whose most significant digit is array 0's dataflow.
///
/// For `x = 4` this is the paper's 1944-label space (Fig. 8d).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Case3Space {
    arrays: usize,
    perms: Vec<Vec<usize>>,
}

impl Case3Space {
    /// Largest supported array count.
    pub(crate) const MAX_ARRAYS: usize = 8;

    /// Builds the space for `arrays` arrays/workloads.
    ///
    /// # Panics
    ///
    /// Panics if `arrays` is 0 or greater than 8 (the space grows as
    /// `3^x · x!`; 8 arrays is already 264 M labels).
    pub fn new(arrays: usize) -> Self {
        assert!(
            (1..=Self::MAX_ARRAYS).contains(&arrays),
            "arrays must be in 1..=8, got {arrays}"
        );
        let mut perms = Vec::new();
        let mut items: Vec<usize> = (0..arrays).collect();
        permute(&mut items, 0, &mut perms);
        perms.sort();
        Self { arrays, perms }
    }

    /// The paper's 4-array space (1944 labels).
    pub fn paper() -> Self {
        Self::new(4)
    }

    /// Number of arrays.
    pub fn arrays(&self) -> usize {
        self.arrays
    }

    /// Number of labels (`3^x · x!`).
    pub fn len(&self) -> usize {
        self.perms.len() * self.dataflow_codes() as usize
    }

    /// Dataflow codes per permutation (`3^x`).
    pub(crate) fn dataflow_codes(&self) -> u32 {
        3u32.pow(self.arrays as u32)
    }

    /// The workload permutations in label order: permutation `p` owns
    /// labels `p · 3^x .. (p + 1) · 3^x`.
    pub(crate) fn permutations(&self) -> &[Vec<usize>] {
        &self.perms
    }

    /// Always false: at least one array is enforced.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Decodes a label into `(permutation, dataflows)`: `permutation[i]` is
    /// the workload index run by array `i`.
    pub fn decode(&self, label: u32) -> Option<(Vec<usize>, Vec<Dataflow>)> {
        let pow = self.dataflow_codes();
        let perm = self.perms.get(label as usize / pow as usize)?.clone();
        let mut code = label % pow;
        let mut dfs = vec![Dataflow::Os; self.arrays];
        for slot in dfs.iter_mut().rev() {
            *slot = Dataflow::from_index((code % 3) as usize).expect("mod 3 < 3");
            code /= 3;
        }
        Some((perm, dfs))
    }

    /// Encodes `(permutation, dataflows)` into a label.
    pub fn encode(&self, permutation: &[usize], dataflows: &[Dataflow]) -> Option<u32> {
        if permutation.len() != self.arrays || dataflows.len() != self.arrays {
            return None;
        }
        let perm_idx = self.perms.iter().position(|p| p == permutation)?;
        let mut code = 0u32;
        for df in dataflows {
            code = code * 3 + df.index() as u32;
        }
        Some(perm_idx as u32 * self.dataflow_codes() + code)
    }
}

fn permute(items: &mut Vec<usize>, start: usize, out: &mut Vec<Vec<usize>>) {
    if start == items.len() {
        out.push(items.clone());
        return;
    }
    for i in start..items.len() {
        items.swap(start, i);
        permute(items, start + 1, out);
        items.swap(start, i);
    }
}

/// Size of the scheduling space for `x` arrays: `3^x · x!` (paper Fig. 7b).
///
/// Returns `None` on overflow (beyond ~x = 20 for u64).
pub fn scheduling_space_size(x: u32) -> Option<u64> {
    let mut fact: u64 = 1;
    for i in 2..=x as u64 {
        fact = fact.checked_mul(i)?;
    }
    3u64.checked_pow(x)?.checked_mul(fact)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn case1_paper_size() {
        assert_eq!(Case1Space::new(1 << 18).len(), 459);
    }

    #[test]
    fn case1_roundtrip_all_labels() {
        let s = Case1Space::new(1 << 10);
        for label in 0..s.len() as u32 {
            let (a, df) = s.decode(label).unwrap();
            assert_eq!(s.encode(a, df), Some(label));
        }
        assert_eq!(s.decode(s.len() as u32), None);
    }

    #[test]
    fn case1_iter_covers_space() {
        let s = Case1Space::new(1 << 8);
        let labels: Vec<u32> = s.iter().map(|(l, _, _)| l).collect();
        let mut sorted = labels.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), s.len());
    }

    #[test]
    fn case2_paper_size() {
        assert_eq!(Case2Space::paper().len(), 1000);
    }

    #[test]
    fn case2_roundtrip_all_labels() {
        let s = Case2Space::paper();
        for label in 0..s.len() as u32 {
            let (i, f, o) = s.decode(label).unwrap();
            assert!((100..=1000).contains(&i));
            assert_eq!(s.encode(i, f, o), Some(label));
        }
        assert_eq!(s.decode(1000), None);
    }

    #[test]
    fn case2_encode_rejects_off_grid() {
        let s = Case2Space::paper();
        assert_eq!(s.encode(150, 100, 100), None);
        assert_eq!(s.encode(0, 100, 100), None);
        assert_eq!(s.encode(1100, 100, 100), None);
    }

    #[test]
    fn case2_label_layout_matches_paper_fig8c() {
        // Fig 8c: config 0 = (100, 100, 100); config 1 = (100, 100, 200);
        // config 999 = (1000, 1000, 1000).
        let s = Case2Space::paper();
        assert_eq!(s.decode(0), Some((100, 100, 100)));
        assert_eq!(s.decode(1), Some((100, 100, 200)));
        assert_eq!(s.decode(999), Some((1000, 1000, 1000)));
    }

    #[test]
    fn case3_paper_size() {
        assert_eq!(Case3Space::paper().len(), 1944);
    }

    #[test]
    fn case3_roundtrip_all_labels() {
        let s = Case3Space::new(3);
        for label in 0..s.len() as u32 {
            let (perm, dfs) = s.decode(label).unwrap();
            assert_eq!(s.encode(&perm, &dfs), Some(label));
        }
        assert_eq!(s.decode(s.len() as u32), None);
    }

    #[test]
    fn case3_label_layout_matches_paper_fig8d() {
        // Fig 8d: config 0 = identity permutation, all OS; config 1 flips
        // the last array's dataflow to WS; config 3 flips array 2 to WS.
        let s = Case3Space::paper();
        let (perm, dfs) = s.decode(0).unwrap();
        assert_eq!(perm, vec![0, 1, 2, 3]);
        assert!(dfs.iter().all(|&d| d == Dataflow::Os));
        let (_, dfs) = s.decode(1).unwrap();
        assert_eq!(
            dfs,
            vec![Dataflow::Os, Dataflow::Os, Dataflow::Os, Dataflow::Ws]
        );
        let (_, dfs) = s.decode(3).unwrap();
        assert_eq!(
            dfs,
            vec![Dataflow::Os, Dataflow::Os, Dataflow::Ws, Dataflow::Os]
        );
    }

    #[test]
    fn case3_permutations_are_valid() {
        let s = Case3Space::new(4);
        for label in (0..s.len() as u32).step_by(81) {
            let (perm, _) = s.decode(label).unwrap();
            let mut sorted = perm.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, vec![0, 1, 2, 3]);
        }
    }

    #[test]
    fn scheduling_space_growth_matches_paper_formula() {
        // Paper Fig 7b: N = 3^x · x!.
        assert_eq!(scheduling_space_size(1), Some(3));
        assert_eq!(scheduling_space_size(2), Some(18));
        assert_eq!(scheduling_space_size(3), Some(162)); // quoted in Sec III-C
        assert_eq!(scheduling_space_size(4), Some(1944)); // quoted in Sec IV-B
        assert_eq!(scheduling_space_size(5), Some(29160));
        assert!(scheduling_space_size(40).is_none()); // overflow guarded
    }
}
