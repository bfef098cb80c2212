//! Slice-level vector kernels.
//!
//! These free functions operate directly on `&[f64]` so that hot loops in
//! the crossbar simulator and the attack code can avoid allocating
//! [`crate::Matrix`] wrappers.

/// Dot product of two slices.
///
/// # Panics
///
/// Panics if the slices have different lengths.
#[inline]
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "dot: length mismatch");
    a.iter().zip(b).map(|(&x, &y)| x * y).sum()
}

/// Rows and vectors per register tile of [`dot_grid`].
const TILE: usize = 4;

/// Vectors packed for [`dot_grid`]: groups of 4 vectors stored j-major
/// (`[[f64; 4]; n]`), so one row element meets all vectors of a group
/// in one load. A short last group is padded with zeros.
#[derive(Debug, Clone)]
pub struct PackedVectors {
    count: usize,
    groups: Vec<Vec<[f64; TILE]>>,
}

impl PackedVectors {
    /// Packs `vectors`.
    ///
    /// # Panics
    ///
    /// Panics if the vectors have different lengths.
    pub fn new(vectors: &[&[f64]]) -> Self {
        let n = vectors.first().map_or(0, |v| v.len());
        let groups = vectors
            .chunks(TILE)
            .map(|group| {
                for v in group {
                    assert_eq!(v.len(), n, "PackedVectors: length mismatch");
                }
                (0..n)
                    .map(|j| std::array::from_fn(|lane| group.get(lane).map_or(0.0, |v| v[j])))
                    .collect()
            })
            .collect();
        PackedVectors {
            count: vectors.len(),
            groups,
        }
    }
}

/// Calls `write(r, v, dot(rows[r], vectors[v]))` for every row and
/// every packed vector, with each value bit-identical to [`dot`]'s.
///
/// The work runs as 4 rows × 4 vectors register tiles:
/// each row element is broadcast across a group's packed vectors, and
/// each of the 16 independent accumulators starts at `-0.0` (as `f64`'s
/// `Sum` does) and adds `w * x` in ascending index order — exactly
/// [`dot`]'s reduction. The compiler may vectorize *across* the
/// accumulators, never inside one, so no sum is reordered. Ragged edges
/// run in a padded tile whose extra lanes are computed and discarded.
///
/// # Panics
///
/// Panics if a row's length differs from the packed vectors' length.
pub fn dot_grid(
    rows: &[&[f64]],
    vectors: &PackedVectors,
    mut write: impl FnMut(usize, usize, f64),
) {
    for (g, group) in vectors.groups.iter().enumerate() {
        let v0 = g * TILE;
        let lanes = (vectors.count - v0).min(TILE);
        for (q, quad) in rows.chunks(TILE).enumerate() {
            let tile_rows = std::array::from_fn(|r| quad[r.min(quad.len() - 1)]);
            let tile = dot_tile(tile_rows, group);
            for (r, tile_row) in tile.iter().enumerate().take(quad.len()) {
                for (v, &value) in tile_row.iter().enumerate().take(lanes) {
                    write(q * TILE + r, v0 + v, value);
                }
            }
        }
    }
}

/// One register tile: `[dot(rows[r], vector v) for v] for r`, where
/// `packed[j][v]` is element `j` of vector `v`.
///
/// Kept out of line: inlined into a caller's loop nest, the
/// accumulators spilled to the stack and the 1024×1024×256 batch MVM
/// ran 1.6× slower.
#[inline(never)]
fn dot_tile(rows: [&[f64]; TILE], packed: &[[f64; TILE]]) -> [[f64; TILE]; TILE] {
    for row in rows {
        assert_eq!(row.len(), packed.len(), "dot_grid: length mismatch");
    }
    let [r0, r1, r2, r3] = rows;
    let mut acc = [[-0.0; TILE]; TILE];
    for ((((x, &w0), &w1), &w2), &w3) in packed.iter().zip(r0).zip(r1).zip(r2).zip(r3) {
        for (acc_row, w) in acc.iter_mut().zip([w0, w1, w2, w3]) {
            for (a, &xv) in acc_row.iter_mut().zip(x) {
                *a += w * xv;
            }
        }
    }
    acc
}

/// `y += alpha * x`.
///
/// # Panics
///
/// Panics if the slices have different lengths.
#[inline]
pub fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
    assert_eq!(x.len(), y.len(), "axpy: length mismatch");
    for (yi, &xi) in y.iter_mut().zip(x) {
        *yi += alpha * xi;
    }
}

/// Scales a slice in place.
#[inline]
pub fn scale(x: &mut [f64], alpha: f64) {
    for v in x {
        *v *= alpha;
    }
}

/// Euclidean (2-) norm.
#[inline]
pub fn norm2(x: &[f64]) -> f64 {
    x.iter().map(|v| v * v).sum::<f64>().sqrt()
}

/// 1-norm (sum of absolute values).
#[inline]
pub fn norm1(x: &[f64]) -> f64 {
    x.iter().map(|v| v.abs()).sum()
}

/// Infinity norm (largest absolute value), `0.0` for the empty slice.
#[inline]
pub fn norm_inf(x: &[f64]) -> f64 {
    x.iter().fold(0.0_f64, |m, &v| m.max(v.abs()))
}

/// Index of the largest element. Ties resolve to the first occurrence.
///
/// # Panics
///
/// Panics if the slice is empty.
#[inline]
pub fn argmax(x: &[f64]) -> usize {
    assert!(!x.is_empty(), "argmax of empty slice");
    let mut best = 0;
    for (i, &v) in x.iter().enumerate().skip(1) {
        if v > x[best] {
            best = i;
        }
    }
    best
}

/// Index of the smallest element. Ties resolve to the first occurrence.
///
/// # Panics
///
/// Panics if the slice is empty.
#[inline]
pub fn argmin(x: &[f64]) -> usize {
    assert!(!x.is_empty(), "argmin of empty slice");
    let mut best = 0;
    for (i, &v) in x.iter().enumerate().skip(1) {
        if v < x[best] {
            best = i;
        }
    }
    best
}

/// Indices of the `k` largest elements, in descending value order.
///
/// If `k > x.len()` all indices are returned. Ties resolve to lower indices
/// first, making the result deterministic.
pub fn top_k_indices(x: &[f64], k: usize) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..x.len()).collect();
    idx.sort_by(|&a, &b| {
        x[b].partial_cmp(&x[a])
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.cmp(&b))
    });
    idx.truncate(k);
    idx
}

/// Elementwise difference `a - b` into a new vector.
///
/// # Panics
///
/// Panics if the slices have different lengths.
#[inline]
pub fn sub(a: &[f64], b: &[f64]) -> Vec<f64> {
    assert_eq!(a.len(), b.len(), "sub: length mismatch");
    a.iter().zip(b).map(|(&x, &y)| x - y).collect()
}

/// Elementwise sum `a + b` into a new vector.
///
/// # Panics
///
/// Panics if the slices have different lengths.
#[inline]
pub fn add(a: &[f64], b: &[f64]) -> Vec<f64> {
    assert_eq!(a.len(), b.len(), "add: length mismatch");
    a.iter().zip(b).map(|(&x, &y)| x + y).collect()
}

/// Clamps every element into `[lo, hi]` in place.
#[inline]
pub fn clamp(x: &mut [f64], lo: f64, hi: f64) {
    for v in x {
        *v = v.clamp(lo, hi);
    }
}

/// Mean of a slice.
///
/// # Panics
///
/// Panics if the slice is empty.
#[inline]
pub fn mean(x: &[f64]) -> f64 {
    assert!(!x.is_empty(), "mean of empty slice");
    x.iter().sum::<f64>() / x.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_known() {
        assert_eq!(dot(&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]), 32.0);
        assert_eq!(dot(&[], &[]), 0.0);
    }

    /// Every `dot_grid` value next to `dot`'s, as bits, with every
    /// pair written exactly once.
    fn assert_grid_matches_dot(rows: &[&[f64]], vectors: &[&[f64]]) {
        let mut got = vec![vec![None; vectors.len()]; rows.len()];
        dot_grid(rows, &PackedVectors::new(vectors), |r, v, value| {
            assert!(
                got[r][v].replace(value).is_none(),
                "({r}, {v}) written twice"
            );
        });
        for (r, row) in rows.iter().enumerate() {
            for (v, vector) in vectors.iter().enumerate() {
                let value = got[r][v].expect("every pair is written");
                assert_eq!(
                    value.to_bits(),
                    dot(row, vector).to_bits(),
                    "row {r} of {}, vector {v} of {}, n {}",
                    rows.len(),
                    vectors.len(),
                    row.len()
                );
            }
        }
    }

    #[test]
    fn dot_grid_is_bit_identical_to_dot_at_every_remainder() {
        // A cheap deterministic generator with mixed signs and exponents,
        // so rounding differs from one summation order to another.
        let mut state = 0x9E37_79B9_7F4A_7C15_u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let unit = (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5;
            unit * f64::powi(10.0, (state % 7) as i32 - 3)
        };
        for n in [0, 1, 5, 1024] {
            let data: Vec<Vec<f64>> = (0..18).map(|_| (0..n).map(|_| next()).collect()).collect();
            let (rows, vectors) = data.split_at(9);
            let rows: Vec<&[f64]> = rows.iter().map(Vec::as_slice).collect();
            let vectors: Vec<&[f64]> = vectors.iter().map(Vec::as_slice).collect();
            for r in 0..=9 {
                for v in 0..=9 {
                    assert_grid_matches_dot(&rows[..r], &vectors[..v]);
                }
            }
        }
    }

    #[test]
    fn dot_grid_keeps_negative_zero_and_non_finite_values() {
        assert_eq!(dot(&[], &[]).to_bits(), (-0.0_f64).to_bits());
        // All products -0.0: the sum stays -0.0, as `dot`'s does.
        let neg = [-0.0, 0.0, -0.0];
        let pos = [0.0, -0.0, 0.0];
        assert_eq!(dot(&neg, &pos).to_bits(), (-0.0_f64).to_bits());
        let specials = [
            vec![1.0, f64::NAN, 2.0],
            vec![f64::INFINITY, 1.0, -1.0],
            vec![f64::NEG_INFINITY, 0.5, 0.25],
            vec![f64::INFINITY, f64::NEG_INFINITY, 1.0],
            vec![0.0, 0.0, f64::INFINITY],
            neg.to_vec(),
            pos.to_vec(),
        ];
        let all: Vec<&[f64]> = specials.iter().map(Vec::as_slice).collect();
        for r in 1..=all.len() {
            assert_grid_matches_dot(&all[..r], &all);
        }
        assert_grid_matches_dot(&[&neg[..]; 5], &[&pos[..]; 6]);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn dot_grid_rejects_rows_of_the_wrong_length() {
        dot_grid(&[&[1.0]], &PackedVectors::new(&[&[1.0, 2.0]]), |_, _, _| {});
    }

    #[test]
    #[should_panic(expected = "dot")]
    fn dot_mismatch_panics() {
        let _ = dot(&[1.0], &[1.0, 2.0]);
    }

    #[test]
    fn axpy_known() {
        let mut y = vec![1.0, 1.0];
        axpy(2.0, &[3.0, -1.0], &mut y);
        assert_eq!(y, vec![7.0, -1.0]);
    }

    #[test]
    fn scale_known() {
        let mut x = vec![1.0, -2.0];
        scale(&mut x, -3.0);
        assert_eq!(x, vec![-3.0, 6.0]);
    }

    #[test]
    fn norms_known() {
        assert!((norm2(&[3.0, 4.0]) - 5.0).abs() < 1e-12);
        assert_eq!(norm1(&[1.0, -2.0, 3.0]), 6.0);
        assert_eq!(norm_inf(&[1.0, -5.0, 3.0]), 5.0);
        assert_eq!(norm_inf(&[]), 0.0);
    }

    #[test]
    fn argmax_argmin_known() {
        assert_eq!(argmax(&[1.0, 3.0, 2.0]), 1);
        assert_eq!(argmin(&[1.0, 3.0, -2.0]), 2);
        // Ties resolve to the first occurrence.
        assert_eq!(argmax(&[2.0, 2.0]), 0);
        assert_eq!(argmin(&[2.0, 2.0]), 0);
    }

    #[test]
    fn top_k_known() {
        let x = [0.1, 0.9, 0.5, 0.9, 0.0];
        assert_eq!(top_k_indices(&x, 3), vec![1, 3, 2]);
        assert_eq!(top_k_indices(&x, 10).len(), 5);
        assert!(top_k_indices(&x, 0).is_empty());
    }

    #[test]
    fn add_sub_known() {
        assert_eq!(add(&[1.0, 2.0], &[3.0, 4.0]), vec![4.0, 6.0]);
        assert_eq!(sub(&[1.0, 2.0], &[3.0, 4.0]), vec![-2.0, -2.0]);
    }

    #[test]
    fn clamp_known() {
        let mut x = vec![-1.0, 0.5, 2.0];
        clamp(&mut x, 0.0, 1.0);
        assert_eq!(x, vec![0.0, 0.5, 1.0]);
    }

    #[test]
    fn mean_known() {
        assert_eq!(mean(&[1.0, 2.0, 3.0]), 2.0);
    }
}
