//! Batch-first evaluation backends for the crossbar hot path.
//!
//! Every attack stage is dominated by long runs of matrix-vector
//! products and power readouts against one programmed array. The
//! per-vector entry points ([`CrossbarArray::checked_mvm`],
//! [`PowerModel::exact`]) re-materialise the effective weight matrix and
//! the per-line conductance totals on every call; a batch of `B` inputs
//! pays that `O(M·N)` setup `B` times. The evaluation API is organised
//! around a *prepared handle* that pays the setup once:
//!
//! * [`EvalBackend::prepare`] materialises a [`PreparedEval`] — the
//!   effective weights, the per-line conductance totals, and a snapshot
//!   of the array — fingerprinted by the array's conductance
//!   [`CrossbarArray::generation`].
//! * The `*_prepared` methods evaluate batches against that handle. A
//!   handle whose generation no longer matches the driving array (the
//!   array was re-programmed, fault-applied, or drifted since) is
//!   rejected with [`CrossbarError::StalePrepared`] — never silently
//!   reused.
//!
//! Three backends implement the trait:
//!
//! * [`NaiveBackend`] — the reference implementation: a straight loop
//!   over the existing per-vector calls against the prepared snapshot.
//! * [`BlockedBackend`] — evaluates from the prepared weights (or line
//!   conductances) with a cache-blocked kernel over `outputs x batch`
//!   blocks, computed in 4 × 4 register tiles by
//!   [`xbar_linalg::vec_ops::dot_grid`]. Tiles vectorize across output
//!   cells, never inside one: every cell is still one full-length
//!   ascending-index reduction bit-identical to
//!   [`xbar_linalg::vec_ops::dot`] — the floating-point reduction the
//!   per-vector path performs — so outputs are **bit-identical** to
//!   [`NaiveBackend`], not merely close.
//! * [`ParallelBackend`] — the blocked kernel over contiguous batch
//!   chunks, one per worker, through
//!   [`xbar_linalg::par::for_each_chunk`]. Threads only change *which*
//!   worker computes a cell, never the reduction inside it, so outputs
//!   stay bit-identical to [`NaiveBackend`] at any thread count.
//!
//! Noisy variants take a per-sample RNG-stream factory (sample index →
//! fresh [`ChaCha8Rng`]), so per-device noise draws depend only on the
//! sample's own stream. Results are therefore bit-identical to the
//! sequential path at any thread count and any batch partitioning.
//!
//! All backends emit the same observability events — one
//! [`xbar_obs::names::XBAR_MVM_BATCH`] count and one
//! [`xbar_obs::names::XBAR_BATCH_OCCUPANCY`] observation per batch, plus
//! the per-sample analog-MVM / power-read counts the per-vector path
//! already emits, always on the calling thread — so campaign traces do
//! not depend on the backend choice or thread count.
//! [`EvalBackend::prepare`] emits no events: preparation is a caching
//! detail, not a hardware operation.

use crate::array::CrossbarArray;
use crate::power::PowerModel;
use crate::{CrossbarError, Result};
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};
use xbar_linalg::par;
use xbar_linalg::vec_ops::{dot, dot_grid, PackedVectors};
use xbar_linalg::Matrix;

/// A per-sample RNG-stream factory: maps the index of a sample within
/// the batch to the RNG that sample's noise draws must come from.
///
/// Callers that need globally stable noise (e.g. an oracle numbering its
/// queries) close over their own offset and derive the stream from the
/// global index.
pub type RngStreams<'a> = &'a mut dyn FnMut(usize) -> ChaCha8Rng;

/// Which [`EvalBackend`] implementation to use — the value carried by
/// configs and CLI flags (usually inside a [`BackendSpec`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum BackendKind {
    /// Per-vector loop over the existing sequential calls.
    #[default]
    Naive,
    /// Cache-blocked batch kernel (bit-identical outputs).
    Blocked,
    /// The blocked kernel fanned out across a scoped thread pool
    /// (bit-identical outputs at any thread count).
    Parallel,
}

impl BackendKind {
    /// Constructs the backend this kind names, with default
    /// [`BatchConfig`] (and, for [`BackendKind::Parallel`], auto thread
    /// count). Use [`BackendSpec::build`] to carry explicit tile sizes
    /// or a thread count.
    pub fn build(self) -> Box<dyn EvalBackend> {
        match self {
            BackendKind::Naive => Box::new(NaiveBackend),
            BackendKind::Blocked => Box::new(BlockedBackend::default()),
            BackendKind::Parallel => Box::new(ParallelBackend::default()),
        }
    }

    /// The CLI spelling of this kind.
    pub fn label(self) -> &'static str {
        match self {
            BackendKind::Naive => "naive",
            BackendKind::Blocked => "blocked",
            BackendKind::Parallel => "parallel",
        }
    }
}

impl std::fmt::Display for BackendKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

impl std::str::FromStr for BackendKind {
    type Err = String;

    fn from_str(s: &str) -> std::result::Result<Self, String> {
        match s {
            "naive" => Ok(BackendKind::Naive),
            "blocked" => Ok(BackendKind::Blocked),
            "parallel" => Ok(BackendKind::Parallel),
            other => Err(format!(
                "unknown backend {other:?} (expected naive, blocked, or parallel)"
            )),
        }
    }
}

/// Cache-block sizes for the blocked kernel ([`BlockedBackend`] and
/// [`ParallelBackend`] workers).
///
/// The defaults keep one block of effective weights plus the block's
/// packed inputs within a typical L1/L2 working set. Inside a block the
/// kernel runs fixed 4 outputs × 4 samples register tiles
/// ([`xbar_linalg::vec_ops::dot_grid`]), which vectorize across output
/// cells, never inside one. Neither blocking nor tiling changes results
/// — each output cell is one full-length ascending-index reduction — so
/// these are pure performance knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct BatchConfig {
    /// Output rows per cache block.
    pub block_outputs: usize,
    /// Batch samples per cache block.
    pub block_samples: usize,
}

impl Default for BatchConfig {
    fn default() -> Self {
        BatchConfig {
            block_outputs: 64,
            block_samples: 16,
        }
    }
}

impl BatchConfig {
    /// Builder-style setter for the output-row block size.
    #[must_use]
    pub fn with_block_outputs(mut self, rows: usize) -> Self {
        self.block_outputs = rows;
        self
    }

    /// Builder-style setter for the batch-sample block size.
    #[must_use]
    pub fn with_block_samples(mut self, samples: usize) -> Self {
        self.block_samples = samples;
        self
    }

    /// Validates the block sizes.
    ///
    /// # Errors
    ///
    /// Returns [`CrossbarError::InvalidConfig`] if either block dimension
    /// is zero.
    pub fn validate(&self) -> Result<()> {
        if self.block_outputs == 0 {
            return Err(CrossbarError::InvalidConfig {
                name: "block_outputs",
            });
        }
        if self.block_samples == 0 {
            return Err(CrossbarError::InvalidConfig {
                name: "block_samples",
            });
        }
        Ok(())
    }
}

/// A complete, serializable backend selection: which kernel, its tile
/// sizes, and (for [`BackendKind::Parallel`]) the worker thread count.
///
/// This is the one value configs and CLI flags carry; `--backend` flags
/// parse it via [`std::str::FromStr`] with the grammar
/// `naive | blocked | parallel[:THREADS]` (`parallel` alone, or
/// `THREADS == 0`, auto-sizes to the host's available parallelism).
///
/// ```
/// use xbar_crossbar::backend::{BackendKind, BackendSpec};
///
/// let spec: BackendSpec = "parallel:4".parse()?;
/// assert_eq!(spec.kind, BackendKind::Parallel);
/// assert_eq!(spec.threads, 4);
/// assert!("blocked:4".parse::<BackendSpec>().is_err());
/// # Ok::<(), String>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct BackendSpec {
    /// Which kernel to run.
    pub kind: BackendKind,
    /// Tile sizes for the blocked/parallel kernels (ignored by
    /// [`BackendKind::Naive`]).
    pub batch: BatchConfig,
    /// Worker threads for [`BackendKind::Parallel`]; `0` auto-sizes to
    /// the host's available parallelism. Ignored by the other kinds.
    pub threads: usize,
}

impl BackendSpec {
    /// A spec for `kind` with default tile sizes and auto threads.
    pub fn new(kind: BackendKind) -> Self {
        BackendSpec {
            kind,
            batch: BatchConfig::default(),
            threads: 0,
        }
    }

    /// Builder-style setter for the tile sizes.
    #[must_use]
    pub fn with_batch(mut self, batch: BatchConfig) -> Self {
        self.batch = batch;
        self
    }

    /// Builder-style setter for the parallel worker count (`0` = auto).
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Validates the spec without building it.
    ///
    /// # Errors
    ///
    /// Propagates [`BatchConfig::validate`].
    pub fn validate(&self) -> Result<()> {
        self.batch.validate()
    }

    /// Constructs the backend this spec describes.
    ///
    /// # Errors
    ///
    /// Propagates [`BatchConfig::validate`].
    pub fn build(&self) -> Result<Box<dyn EvalBackend>> {
        Ok(match self.kind {
            BackendKind::Naive => Box::new(NaiveBackend),
            BackendKind::Blocked => Box::new(BlockedBackend::new(self.batch)?),
            BackendKind::Parallel => Box::new(ParallelBackend::new(self.batch, self.threads)?),
        })
    }
}

impl From<BackendKind> for BackendSpec {
    fn from(kind: BackendKind) -> Self {
        BackendSpec::new(kind)
    }
}

impl std::fmt::Display for BackendSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.kind == BackendKind::Parallel && self.threads > 0 {
            write!(f, "parallel:{}", self.threads)
        } else {
            f.write_str(self.kind.label())
        }
    }
}

impl std::str::FromStr for BackendSpec {
    type Err = String;

    fn from_str(s: &str) -> std::result::Result<Self, String> {
        let (kind_str, threads) = match s.split_once(':') {
            None => (s, None),
            Some((kind, threads)) => (kind, Some(threads)),
        };
        let kind: BackendKind = kind_str.parse()?;
        match threads {
            None => Ok(BackendSpec::new(kind)),
            Some(t) => {
                if kind != BackendKind::Parallel {
                    return Err(format!(
                        "backend {kind_str:?} does not take a thread count \
                         (the :N suffix applies to parallel only)"
                    ));
                }
                let threads: usize = t.parse().map_err(|_| {
                    format!(
                        "invalid thread count {t:?} in backend spec \
                         (expected parallel:N with N a non-negative integer)"
                    )
                })?;
                Ok(BackendSpec::new(kind).with_threads(threads))
            }
        }
    }
}

/// A materialised evaluation handle for one conductance generation of
/// one array: the effective weight matrix, the per-line conductance
/// totals, and a snapshot of the array itself (so noisy per-device
/// reads and decorated backends evaluate the exact state that was
/// prepared).
///
/// Built by [`EvalBackend::prepare`] and consumed by the `*_prepared`
/// methods. The handle is keyed by [`CrossbarArray::generation`]: every
/// `*_prepared` call checks the driving array's current generation
/// against the one the handle was prepared from and fails with
/// [`CrossbarError::StalePrepared`] on mismatch — stale reuse after
/// re-programming, [`CrossbarArray::map_conductances`] (fault-plan
/// application, transient perturbation), or drift-time advance is an
/// error, never silently wrong numbers.
#[derive(Debug, Clone)]
pub struct PreparedEval {
    generation: u64,
    array: CrossbarArray,
    weights: Matrix,
    conductances: Vec<f64>,
}

impl PreparedEval {
    /// Materialises a handle for the array's current generation: one
    /// `O(M·N)` pass building the effective weights, the per-line
    /// conductance totals, and the snapshot.
    pub fn new(array: &CrossbarArray) -> Self {
        PreparedEval {
            generation: array.generation(),
            weights: array.effective_weights(),
            conductances: array.input_line_conductances(),
            array: array.clone(),
        }
    }

    /// The conductance generation this handle was prepared from.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// The snapshot of the array the handle was prepared from.
    ///
    /// `*_prepared` methods evaluate against this snapshot (the driving
    /// array argument is only the staleness witness) — which is what
    /// lets decorating backends prepare from a *derived* array (e.g. a
    /// faulted copy) and still be driven with the source array.
    pub fn array(&self) -> &CrossbarArray {
        &self.array
    }

    /// The materialised effective weights,
    /// [`CrossbarArray::effective_weights`] of the snapshot.
    pub fn weights(&self) -> &Matrix {
        &self.weights
    }

    /// The materialised per-line conductance totals,
    /// [`CrossbarArray::input_line_conductances`] of the snapshot.
    pub fn line_conductances(&self) -> &[f64] {
        &self.conductances
    }

    /// Re-keys the handle to a different source generation.
    ///
    /// For decorating backends only: a decorator that prepares from a
    /// derived array (e.g. [`FaultyBackend`](crate::backend) wrappers in
    /// `xbar-faults` preparing from the faulted copy) re-keys the handle
    /// to the *source* array's generation, so staleness is tracked
    /// against the array callers actually hold.
    pub fn rekey(&mut self, generation: u64) {
        self.generation = generation;
    }

    /// Fails unless `array`'s current conductance generation matches the
    /// one this handle was prepared from.
    ///
    /// # Errors
    ///
    /// Returns [`CrossbarError::StalePrepared`] on mismatch.
    pub fn ensure_current(&self, array: &CrossbarArray) -> Result<()> {
        if array.generation() != self.generation {
            return Err(CrossbarError::StalePrepared {
                prepared: self.generation,
                current: array.generation(),
            });
        }
        Ok(())
    }
}

/// Batched evaluation of one programmed crossbar array.
///
/// All implementations must produce outputs bit-identical to looping the
/// corresponding per-vector call over the batch in order, and must emit
/// the same observability events while doing so.
///
/// The entry points are [`EvalBackend::prepare`] plus the `*_prepared`
/// methods: prepare once per deployed array generation, then evaluate
/// any number of batches against the handle.
pub trait EvalBackend: Send + Sync + std::fmt::Debug {
    /// Which [`BackendKind`] this backend implements.
    fn kind(&self) -> BackendKind;

    /// Materialises a [`PreparedEval`] for the array's current
    /// conductance generation. Emits no observability events.
    ///
    /// Decorating backends (fault injection) override this to prepare
    /// from their derived array and re-key the handle to the source
    /// generation — see [`PreparedEval::rekey`].
    ///
    /// # Errors
    ///
    /// Decorator implementations propagate derivation errors (e.g. a
    /// fault plan compiled for a different shape).
    fn prepare(&self, array: &CrossbarArray) -> Result<PreparedEval> {
        Ok(PreparedEval::new(array))
    }

    /// Noiseless differential MVM for a batch of inputs against a
    /// prepared handle — the batched [`CrossbarArray::checked_mvm`].
    ///
    /// `array` is the staleness witness: evaluation reads only the
    /// handle's materialised state.
    ///
    /// # Errors
    ///
    /// * [`CrossbarError::StalePrepared`] if `array`'s generation no
    ///   longer matches the handle.
    /// * [`CrossbarError::InputLenMismatch`] if any input has the wrong
    ///   length (checked up front; no partial work happens).
    fn mvm_prepared(
        &self,
        prepared: &PreparedEval,
        array: &CrossbarArray,
        inputs: &[&[f64]],
    ) -> Result<Vec<Vec<f64>>>;

    /// Noiseless measured power for a batch of inputs against a
    /// prepared handle — the batched [`PowerModel::exact`].
    ///
    /// # Errors
    ///
    /// As [`EvalBackend::mvm_prepared`].
    fn power_prepared(
        &self,
        model: &PowerModel,
        prepared: &PreparedEval,
        array: &CrossbarArray,
        inputs: &[&[f64]],
    ) -> Result<Vec<f64>>;

    /// Differential MVM with per-read device noise for a batch of
    /// inputs against a prepared handle. Sample `i`'s noise draws come
    /// from `streams(i)` only, so results match the sequential
    /// per-vector loop at any thread count.
    ///
    /// # Errors
    ///
    /// As [`EvalBackend::mvm_prepared`].
    fn noisy_mvm_prepared(
        &self,
        prepared: &PreparedEval,
        array: &CrossbarArray,
        inputs: &[&[f64]],
        streams: RngStreams<'_>,
    ) -> Result<Vec<Vec<f64>>>;

    /// Noisy measured power for a batch of inputs against a prepared
    /// handle; sample `i`'s measurement noise comes from `streams(i)`
    /// only.
    ///
    /// # Errors
    ///
    /// As [`EvalBackend::mvm_prepared`].
    fn noisy_power_prepared(
        &self,
        model: &PowerModel,
        prepared: &PreparedEval,
        array: &CrossbarArray,
        inputs: &[&[f64]],
        streams: RngStreams<'_>,
    ) -> Result<Vec<f64>>;
}

/// Rejects the whole batch before any work (or counting) happens, so
/// all backends fail identically and traces never record partial
/// batches.
fn validate_batch(array: &CrossbarArray, inputs: &[&[f64]]) -> Result<()> {
    let n = array.num_inputs();
    for input in inputs {
        if input.len() != n {
            return Err(CrossbarError::InputLenMismatch {
                expected: n,
                got: input.len(),
            });
        }
    }
    Ok(())
}

/// The shared batch-entry observability events (deliberately identical
/// across backends so traces are backend-invariant).
fn record_batch(inputs: &[&[f64]]) {
    xbar_obs::count(xbar_obs::names::XBAR_MVM_BATCH, 1);
    xbar_obs::observe(xbar_obs::names::XBAR_BATCH_OCCUPANCY, inputs.len() as f64);
}

/// Per-sample noisy MVM loop shared by all backends: the per-device
/// draw order inside one sample cannot be restructured without changing
/// results, so batching buys nothing here beyond stream isolation.
fn noisy_mvm_per_sample(
    array: &CrossbarArray,
    inputs: &[&[f64]],
    streams: RngStreams<'_>,
) -> Result<Vec<Vec<f64>>> {
    inputs
        .iter()
        .enumerate()
        .map(|(i, input)| {
            let mut rng = streams(i);
            array.noisy_mvm(input, &mut rng)
        })
        .collect()
}

/// Per-sample noisy power loop shared by all backends.
fn noisy_power_per_sample(
    model: &PowerModel,
    array: &CrossbarArray,
    inputs: &[&[f64]],
    streams: RngStreams<'_>,
) -> Result<Vec<f64>> {
    inputs
        .iter()
        .enumerate()
        .map(|(i, input)| {
            let mut rng = streams(i);
            model.measure(array, input, &mut rng)
        })
        .collect()
}

/// The tiled noiseless MVM kernel, writing sample `s`'s output row `i`
/// into `out[s][i]`.
///
/// This is the one kernel [`BlockedBackend`] and every
/// [`ParallelBackend`] worker run. Each `block_samples` block of inputs
/// is packed once and met by each `block_outputs` block of weight rows
/// through [`dot_grid`], whose register tiles vectorize across output
/// cells, never inside one: each cell is one full-length
/// ascending-index reduction bit-identical to [`dot`] — the reduction
/// `checked_mvm`'s `matvec` performs — so tile boundaries and work
/// partitioning never change a single bit of the result.
fn mvm_tiles_into(w_eff: &Matrix, inputs: &[&[f64]], config: BatchConfig, out: &mut [Vec<f64>]) {
    let rows: Vec<&[f64]> = w_eff.rows_iter().collect();
    let bo = config.block_outputs.max(1);
    let bs = config.block_samples.max(1);
    for (input_block, out_block) in inputs.chunks(bs).zip(out.chunks_mut(bs)) {
        let packed = PackedVectors::new(input_block);
        for (i0, row_block) in (0..).step_by(bo).zip(rows.chunks(bo)) {
            dot_grid(row_block, &packed, |r, s, value| {
                out_block[s][i0 + r] = value
            });
        }
    }
}

/// The reference backend: a straight loop over the per-vector calls
/// against the prepared snapshot.
#[derive(Debug, Clone, Copy, Default)]
pub struct NaiveBackend;

impl EvalBackend for NaiveBackend {
    fn kind(&self) -> BackendKind {
        BackendKind::Naive
    }

    fn mvm_prepared(
        &self,
        prepared: &PreparedEval,
        array: &CrossbarArray,
        inputs: &[&[f64]],
    ) -> Result<Vec<Vec<f64>>> {
        prepared.ensure_current(array)?;
        validate_batch(prepared.array(), inputs)?;
        record_batch(inputs);
        inputs
            .iter()
            .map(|input| prepared.array().checked_mvm(input))
            .collect()
    }

    fn power_prepared(
        &self,
        model: &PowerModel,
        prepared: &PreparedEval,
        array: &CrossbarArray,
        inputs: &[&[f64]],
    ) -> Result<Vec<f64>> {
        prepared.ensure_current(array)?;
        validate_batch(prepared.array(), inputs)?;
        record_batch(inputs);
        inputs
            .iter()
            .map(|input| model.exact(prepared.array(), input))
            .collect()
    }

    fn noisy_mvm_prepared(
        &self,
        prepared: &PreparedEval,
        array: &CrossbarArray,
        inputs: &[&[f64]],
        streams: RngStreams<'_>,
    ) -> Result<Vec<Vec<f64>>> {
        prepared.ensure_current(array)?;
        validate_batch(prepared.array(), inputs)?;
        record_batch(inputs);
        noisy_mvm_per_sample(prepared.array(), inputs, streams)
    }

    fn noisy_power_prepared(
        &self,
        model: &PowerModel,
        prepared: &PreparedEval,
        array: &CrossbarArray,
        inputs: &[&[f64]],
        streams: RngStreams<'_>,
    ) -> Result<Vec<f64>> {
        prepared.ensure_current(array)?;
        validate_batch(prepared.array(), inputs)?;
        record_batch(inputs);
        noisy_power_per_sample(model, prepared.array(), inputs, streams)
    }
}

/// The cache-blocked batch backend.
///
/// Noiseless evaluation reads the handle's materialised weights (or
/// line conductances) and walks `outputs x batch` blocks so a block of
/// weight rows stays cache-resident across the block's samples, in
/// register tiles that vectorize across cells, never inside one. Each
/// output cell is one full-length ascending-index dot product, so every
/// number equals the per-vector path's bit for bit.
#[derive(Debug, Clone, Copy, Default)]
pub struct BlockedBackend {
    config: BatchConfig,
}

impl BlockedBackend {
    /// A blocked backend with the given tile sizes.
    ///
    /// # Errors
    ///
    /// Propagates [`BatchConfig::validate`].
    pub fn new(config: BatchConfig) -> Result<Self> {
        config.validate()?;
        Ok(BlockedBackend { config })
    }

    /// The tile sizes in effect.
    pub fn config(&self) -> BatchConfig {
        self.config
    }
}

impl EvalBackend for BlockedBackend {
    fn kind(&self) -> BackendKind {
        BackendKind::Blocked
    }

    fn mvm_prepared(
        &self,
        prepared: &PreparedEval,
        array: &CrossbarArray,
        inputs: &[&[f64]],
    ) -> Result<Vec<Vec<f64>>> {
        prepared.ensure_current(array)?;
        validate_batch(prepared.array(), inputs)?;
        record_batch(inputs);
        // One analog MVM per sample, exactly like the per-vector path.
        xbar_obs::count(xbar_obs::names::XBAR_ANALOG_MVM, inputs.len() as u64);
        let m = prepared.weights().rows();
        let mut out: Vec<Vec<f64>> = inputs.iter().map(|_| vec![0.0; m]).collect();
        mvm_tiles_into(prepared.weights(), inputs, self.config, &mut out);
        Ok(out)
    }

    fn power_prepared(
        &self,
        model: &PowerModel,
        prepared: &PreparedEval,
        array: &CrossbarArray,
        inputs: &[&[f64]],
    ) -> Result<Vec<f64>> {
        prepared.ensure_current(array)?;
        validate_batch(prepared.array(), inputs)?;
        record_batch(inputs);
        // One power read per sample, exactly like the per-vector path.
        xbar_obs::count(xbar_obs::names::XBAR_POWER_READ, inputs.len() as u64);
        let conductances = prepared.line_conductances();
        Ok(inputs
            .iter()
            .map(|input| {
                // Same accumulation as `total_current`, amortising the
                // per-line conductance totals across batches.
                model.v_dd * dot(conductances, input)
            })
            .collect())
    }

    fn noisy_mvm_prepared(
        &self,
        prepared: &PreparedEval,
        array: &CrossbarArray,
        inputs: &[&[f64]],
        streams: RngStreams<'_>,
    ) -> Result<Vec<Vec<f64>>> {
        prepared.ensure_current(array)?;
        validate_batch(prepared.array(), inputs)?;
        record_batch(inputs);
        noisy_mvm_per_sample(prepared.array(), inputs, streams)
    }

    fn noisy_power_prepared(
        &self,
        model: &PowerModel,
        prepared: &PreparedEval,
        array: &CrossbarArray,
        inputs: &[&[f64]],
        streams: RngStreams<'_>,
    ) -> Result<Vec<f64>> {
        prepared.ensure_current(array)?;
        validate_batch(prepared.array(), inputs)?;
        record_batch(inputs);
        noisy_power_per_sample(model, prepared.array(), inputs, streams)
    }
}

/// The multi-threaded blocked backend: the same tiled kernel as
/// [`BlockedBackend`], fanned out over a scoped thread pool.
///
/// Noiseless MVM and power partition the batch into contiguous sample
/// chunks, one per worker, each writing a disjoint slice of the output
/// through [`xbar_linalg::par::for_each_chunk`]. Every output cell is
/// still one full-length ascending-index [`dot`] computed by exactly one
/// worker, so results are **bit-identical** to [`NaiveBackend`] at any
/// thread count — parallelism only changes which thread computes a
/// cell, never the reduction inside it.
///
/// Noisy variants stay sequential per sample: the per-sample RNG-stream
/// factory is an exclusive closure, and per-device draw order is part
/// of the contract.
///
/// All observability events are emitted on the calling thread before
/// work is fanned out (the obs collector scope is thread-local), so
/// traces are identical to the other backends' at any thread count.
#[derive(Debug, Clone, Copy, Default)]
pub struct ParallelBackend {
    config: BatchConfig,
    threads: usize,
}

impl ParallelBackend {
    /// A parallel backend with the given tile sizes and worker count
    /// (`threads == 0` auto-sizes to the host's available parallelism).
    ///
    /// # Errors
    ///
    /// Propagates [`BatchConfig::validate`].
    pub fn new(config: BatchConfig, threads: usize) -> Result<Self> {
        config.validate()?;
        Ok(ParallelBackend { config, threads })
    }

    /// The tile sizes in effect.
    pub fn config(&self) -> BatchConfig {
        self.config
    }

    /// The configured worker count (`0` = auto).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The worker count actually used: the configured count, or the
    /// host's available parallelism when configured as `0`.
    pub fn resolved_threads(&self) -> usize {
        par::resolve_threads(self.threads)
    }
}

impl EvalBackend for ParallelBackend {
    fn kind(&self) -> BackendKind {
        BackendKind::Parallel
    }

    fn mvm_prepared(
        &self,
        prepared: &PreparedEval,
        array: &CrossbarArray,
        inputs: &[&[f64]],
    ) -> Result<Vec<Vec<f64>>> {
        prepared.ensure_current(array)?;
        validate_batch(prepared.array(), inputs)?;
        // All events on the calling thread: obs scopes are thread-local
        // and must not lose worker-side counts.
        record_batch(inputs);
        xbar_obs::count(xbar_obs::names::XBAR_ANALOG_MVM, inputs.len() as u64);
        let w_eff = prepared.weights();
        let m = w_eff.rows();
        let config = self.config;
        let mut out: Vec<Vec<f64>> = inputs.iter().map(|_| vec![0.0; m]).collect();
        // Contiguous sample chunks, one per worker, each writing its own
        // disjoint output slice; `for_each_chunk` caps the workers at the
        // batch size.
        par::for_each_chunk(&mut out, self.resolved_threads(), |start, out_chunk| {
            let input_chunk = &inputs[start..start + out_chunk.len()];
            mvm_tiles_into(w_eff, input_chunk, config, out_chunk);
        });
        Ok(out)
    }

    fn power_prepared(
        &self,
        model: &PowerModel,
        prepared: &PreparedEval,
        array: &CrossbarArray,
        inputs: &[&[f64]],
    ) -> Result<Vec<f64>> {
        prepared.ensure_current(array)?;
        validate_batch(prepared.array(), inputs)?;
        record_batch(inputs);
        xbar_obs::count(xbar_obs::names::XBAR_POWER_READ, inputs.len() as u64);
        let conductances = prepared.line_conductances();
        let v_dd = model.v_dd;
        let mut threads = self.resolved_threads();
        if inputs.len() < 2 * threads {
            // One O(N) dot per sample: not worth a fan-out below a few
            // samples per worker.
            threads = 1;
        }
        let mut out = vec![0.0; inputs.len()];
        par::for_each_chunk(&mut out, threads, |start, out_chunk| {
            for (o, input) in out_chunk.iter_mut().zip(&inputs[start..]) {
                *o = v_dd * dot(conductances, input);
            }
        });
        Ok(out)
    }

    fn noisy_mvm_prepared(
        &self,
        prepared: &PreparedEval,
        array: &CrossbarArray,
        inputs: &[&[f64]],
        streams: RngStreams<'_>,
    ) -> Result<Vec<Vec<f64>>> {
        prepared.ensure_current(array)?;
        validate_batch(prepared.array(), inputs)?;
        record_batch(inputs);
        noisy_mvm_per_sample(prepared.array(), inputs, streams)
    }

    fn noisy_power_prepared(
        &self,
        model: &PowerModel,
        prepared: &PreparedEval,
        array: &CrossbarArray,
        inputs: &[&[f64]],
        streams: RngStreams<'_>,
    ) -> Result<Vec<f64>> {
        prepared.ensure_current(array)?;
        validate_batch(prepared.array(), inputs)?;
        record_batch(inputs);
        noisy_power_per_sample(model, prepared.array(), inputs, streams)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::DeviceModel;
    use rand::SeedableRng;
    use xbar_linalg::Matrix;

    // Prepare-once shorthands: the tests below compare backends on
    // single batches, where "prepare, evaluate, drop" is the whole
    // lifecycle.
    fn mvm<B: EvalBackend + ?Sized>(
        backend: &B,
        array: &CrossbarArray,
        inputs: &[&[f64]],
    ) -> Result<Vec<Vec<f64>>> {
        let prepared = backend.prepare(array)?;
        backend.mvm_prepared(&prepared, array, inputs)
    }

    fn power<B: EvalBackend + ?Sized>(
        backend: &B,
        model: &PowerModel,
        array: &CrossbarArray,
        inputs: &[&[f64]],
    ) -> Result<Vec<f64>> {
        let prepared = backend.prepare(array)?;
        backend.power_prepared(model, &prepared, array, inputs)
    }

    fn noisy_mvm<B: EvalBackend + ?Sized>(
        backend: &B,
        array: &CrossbarArray,
        inputs: &[&[f64]],
        streams: RngStreams<'_>,
    ) -> Result<Vec<Vec<f64>>> {
        let prepared = backend.prepare(array)?;
        backend.noisy_mvm_prepared(&prepared, array, inputs, streams)
    }

    fn noisy_power<B: EvalBackend + ?Sized>(
        backend: &B,
        model: &PowerModel,
        array: &CrossbarArray,
        inputs: &[&[f64]],
        streams: RngStreams<'_>,
    ) -> Result<Vec<f64>> {
        let prepared = backend.prepare(array)?;
        backend.noisy_power_prepared(model, &prepared, array, inputs, streams)
    }

    fn array(m: usize, n: usize, seed: u64) -> CrossbarArray {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let w = Matrix::random_uniform(m, n, -1.0, 1.0, &mut rng);
        CrossbarArray::program(&w, &DeviceModel::ideal(), &mut rng).unwrap()
    }

    fn batch(n: usize, b: usize, seed: u64) -> Vec<Vec<f64>> {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        (0..b)
            .map(|_| {
                (0..n)
                    .map(|_| rand::Rng::gen_range(&mut rng, -1.0..1.0))
                    .collect()
            })
            .collect()
    }

    fn refs(batch: &[Vec<f64>]) -> Vec<&[f64]> {
        batch.iter().map(Vec::as_slice).collect()
    }

    #[test]
    fn blocked_mvm_is_bit_identical_to_naive() {
        let xbar = array(13, 29, 1);
        let inputs = batch(29, 37, 2);
        let refs = refs(&inputs);
        let naive = mvm(&NaiveBackend, &xbar, &refs).unwrap();
        let blocked = mvm(&BlockedBackend::default(), &xbar, &refs).unwrap();
        assert_eq!(naive, blocked);
        // And both equal the sequential per-vector loop.
        for (input, row) in refs.iter().zip(&naive) {
            assert_eq!(row, &xbar.checked_mvm(input).unwrap());
        }
    }

    #[test]
    fn parallel_mvm_is_bit_identical_at_any_thread_count() {
        let xbar = array(19, 23, 11);
        let model = PowerModel::default();
        for b in [1usize, 3, 16] {
            let inputs = batch(23, b, 12);
            let refs = refs(&inputs);
            let naive = mvm(&NaiveBackend, &xbar, &refs).unwrap();
            let p_naive = power(&NaiveBackend, &model, &xbar, &refs).unwrap();
            // 0 = auto; 1 = inline; small and oversubscribed pools,
            // including more threads than samples (b < threads).
            for threads in [0usize, 1, 2, 3, 8, 32] {
                let parallel = ParallelBackend::new(BatchConfig::default(), threads).unwrap();
                assert_eq!(
                    mvm(&parallel, &xbar, &refs).unwrap(),
                    naive,
                    "mvm b={b} threads={threads}"
                );
                assert_eq!(
                    power(&parallel, &model, &xbar, &refs).unwrap(),
                    p_naive,
                    "power b={b} threads={threads}"
                );
            }
        }
    }

    #[test]
    fn prepared_handles_are_reusable_across_batches() {
        let xbar = array(9, 14, 21);
        let first = batch(14, 6, 22);
        let second = batch(14, 3, 23);
        for spec in [
            BackendSpec::new(BackendKind::Naive),
            BackendSpec::new(BackendKind::Blocked),
            BackendSpec::new(BackendKind::Parallel).with_threads(2),
        ] {
            let backend = spec.build().unwrap();
            let prepared = backend.prepare(&xbar).unwrap();
            assert_eq!(prepared.generation(), xbar.generation());
            for inputs in [&first, &second] {
                let refs = refs(inputs);
                let warm = backend.mvm_prepared(&prepared, &xbar, &refs).unwrap();
                assert_eq!(warm, mvm(backend.as_ref(), &xbar, &refs).unwrap(), "{spec}");
                let model = PowerModel::default();
                let p_warm = backend
                    .power_prepared(&model, &prepared, &xbar, &refs)
                    .unwrap();
                assert_eq!(
                    p_warm,
                    power(backend.as_ref(), &model, &xbar, &refs).unwrap(),
                    "{spec}"
                );
            }
        }
    }

    #[test]
    fn stale_prepared_handles_are_rejected() {
        let xbar = array(5, 7, 31);
        let inputs = batch(7, 2, 32);
        let refs = refs(&inputs);
        let model = PowerModel::default();
        let mut stream = |_: usize| ChaCha8Rng::seed_from_u64(9);
        for kind in [
            BackendKind::Naive,
            BackendKind::Blocked,
            BackendKind::Parallel,
        ] {
            let backend = kind.build();
            let prepared = backend.prepare(&xbar).unwrap();
            // Even an identity conductance map invalidates the handle.
            let remapped = xbar.map_conductances(|_, g| g);
            let err = backend.mvm_prepared(&prepared, &remapped, &refs);
            assert!(
                matches!(err, Err(CrossbarError::StalePrepared { .. })),
                "{kind}: {err:?}"
            );
            assert!(backend
                .power_prepared(&model, &prepared, &remapped, &refs)
                .is_err());
            assert!(backend
                .noisy_mvm_prepared(&prepared, &remapped, &refs, &mut stream)
                .is_err());
            assert!(backend
                .noisy_power_prepared(&model, &prepared, &remapped, &refs, &mut stream)
                .is_err());
            // The handle still serves the generation it was built from.
            assert!(backend.mvm_prepared(&prepared, &xbar, &refs).is_ok());
        }
    }

    #[test]
    fn rekeyed_handles_follow_the_new_source() {
        let xbar = array(4, 5, 41);
        let derived = xbar.map_conductances(|_, g| g * 0.5);
        let backend = BlockedBackend::default();
        let mut prepared = backend.prepare(&derived).unwrap();
        prepared.rekey(xbar.generation());
        let inputs = batch(5, 3, 42);
        let refs = refs(&inputs);
        // Driven with the source array, evaluated from the derived
        // snapshot — the decorator contract.
        let out = backend.mvm_prepared(&prepared, &xbar, &refs).unwrap();
        for (input, row) in refs.iter().zip(&out) {
            assert_eq!(row, &derived.checked_mvm(input).unwrap());
        }
        assert!(backend.mvm_prepared(&prepared, &derived, &refs).is_err());
    }

    #[test]
    fn blocked_power_is_bit_identical_to_naive() {
        let xbar = array(7, 31, 3);
        let inputs = batch(31, 25, 4);
        let refs = refs(&inputs);
        let model = PowerModel::default();
        let naive = power(&NaiveBackend, &model, &xbar, &refs).unwrap();
        let blocked = power(&BlockedBackend::default(), &model, &xbar, &refs).unwrap();
        assert_eq!(naive, blocked);
        for (input, p) in refs.iter().zip(&naive) {
            assert_eq!(*p, model.exact(&xbar, input).unwrap());
        }
    }

    #[test]
    fn tiny_tiles_do_not_change_results() {
        let xbar = array(9, 11, 5);
        let inputs = batch(11, 10, 6);
        let refs = refs(&inputs);
        let tiny = BlockedBackend::new(
            BatchConfig::default()
                .with_block_outputs(2)
                .with_block_samples(3),
        )
        .unwrap();
        assert_eq!(
            mvm(&tiny, &xbar, &refs).unwrap(),
            mvm(&NaiveBackend, &xbar, &refs).unwrap()
        );
    }

    #[test]
    fn noisy_batches_match_sequential_per_sample_streams() {
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let w = Matrix::random_uniform(6, 10, -1.0, 1.0, &mut rng);
        let device = DeviceModel::ideal().with_read_sigma(0.02);
        let xbar = CrossbarArray::program(&w, &device, &mut rng).unwrap();
        let inputs = batch(10, 9, 8);
        let refs = refs(&inputs);
        let stream = |i: usize| {
            let mut r = ChaCha8Rng::seed_from_u64(99);
            r.set_stream(i as u64);
            r
        };
        let naive = noisy_mvm(&NaiveBackend, &xbar, &refs, &mut { stream }).unwrap();
        for backend in [
            Box::new(BlockedBackend::default()) as Box<dyn EvalBackend>,
            Box::new(ParallelBackend::new(BatchConfig::default(), 4).unwrap()),
        ] {
            assert_eq!(
                naive,
                noisy_mvm(backend.as_ref(), &xbar, &refs, &mut { stream }).unwrap()
            );
        }
        // Sequential reference with the same streams.
        for (i, input) in refs.iter().enumerate() {
            let mut r = stream(i);
            assert_eq!(naive[i], xbar.noisy_mvm(input, &mut r).unwrap());
        }

        let model = PowerModel::default().with_noise(0.1);
        let p_naive = noisy_power(&NaiveBackend, &model, &xbar, &refs, &mut { stream }).unwrap();
        let p_blocked = noisy_power(&BlockedBackend::default(), &model, &xbar, &refs, &mut {
            stream
        })
        .unwrap();
        assert_eq!(p_naive, p_blocked);
    }

    #[test]
    fn wrong_length_inputs_are_rejected_up_front() {
        let xbar = array(4, 6, 9);
        let good = vec![0.5; 6];
        let bad = vec![0.5; 5];
        let refs: Vec<&[f64]> = vec![&good, &bad];
        for backend in [
            BackendKind::Naive.build(),
            BackendKind::Blocked.build(),
            BackendKind::Parallel.build(),
        ] {
            assert!(matches!(
                mvm(backend.as_ref(), &xbar, &refs),
                Err(CrossbarError::InputLenMismatch {
                    expected: 6,
                    got: 5
                })
            ));
            assert!(power(backend.as_ref(), &PowerModel::default(), &xbar, &refs).is_err());
        }
    }

    #[test]
    fn empty_batches_are_fine() {
        let xbar = array(3, 4, 10);
        let refs: Vec<&[f64]> = Vec::new();
        for backend in [
            BackendKind::Naive.build(),
            BackendKind::Blocked.build(),
            BackendKind::Parallel.build(),
        ] {
            assert!(mvm(backend.as_ref(), &xbar, &refs).unwrap().is_empty());
        }
    }

    #[test]
    fn kind_roundtrips_through_strings() {
        for kind in [
            BackendKind::Naive,
            BackendKind::Blocked,
            BackendKind::Parallel,
        ] {
            assert_eq!(kind.label().parse::<BackendKind>().unwrap(), kind);
            assert_eq!(kind.to_string(), kind.label());
            assert_eq!(kind.build().kind(), kind);
        }
        assert!("gpu".parse::<BackendKind>().is_err());
        assert_eq!(BackendKind::default(), BackendKind::Naive);
    }

    #[test]
    fn backend_spec_parses_and_roundtrips() {
        assert_eq!(
            "naive".parse::<BackendSpec>().unwrap(),
            BackendSpec::new(BackendKind::Naive)
        );
        assert_eq!(
            "blocked".parse::<BackendSpec>().unwrap(),
            BackendSpec::new(BackendKind::Blocked)
        );
        assert_eq!(
            "parallel".parse::<BackendSpec>().unwrap(),
            BackendSpec::new(BackendKind::Parallel)
        );
        let spec: BackendSpec = "parallel:8".parse().unwrap();
        assert_eq!(spec.kind, BackendKind::Parallel);
        assert_eq!(spec.threads, 8);
        // Display round-trips through FromStr.
        for s in ["naive", "blocked", "parallel", "parallel:8"] {
            let spec: BackendSpec = s.parse().unwrap();
            assert_eq!(spec.to_string(), s);
            assert_eq!(spec.to_string().parse::<BackendSpec>().unwrap(), spec);
        }
        // Malformed specs fail loudly.
        for bad in [
            "gpu",
            "parallel:x",
            "parallel:-1",
            "naive:2",
            "blocked:4",
            "",
        ] {
            assert!(bad.parse::<BackendSpec>().is_err(), "{bad:?}");
        }
        // From<BackendKind> keeps old call sites working.
        let from_kind: BackendSpec = BackendKind::Blocked.into();
        assert_eq!(from_kind, BackendSpec::new(BackendKind::Blocked));
        assert_eq!(BackendSpec::default().kind, BackendKind::Naive);
    }

    #[test]
    fn spec_build_validates_batch_config() {
        let bad = BackendSpec::new(BackendKind::Blocked)
            .with_batch(BatchConfig::default().with_block_outputs(0));
        assert!(bad.validate().is_err());
        assert!(bad.build().is_err());
        let good = BackendSpec::new(BackendKind::Parallel)
            .with_batch(BatchConfig::default().with_block_outputs(8))
            .with_threads(2);
        assert!(good.validate().is_ok());
        assert_eq!(good.build().unwrap().kind(), BackendKind::Parallel);
    }

    #[test]
    fn batch_config_validates() {
        assert!(BatchConfig::default().validate().is_ok());
        assert!(BlockedBackend::new(BatchConfig::default().with_block_outputs(0)).is_err());
        assert!(BlockedBackend::new(BatchConfig::default().with_block_samples(0)).is_err());
        let cfg = BatchConfig::default()
            .with_block_outputs(8)
            .with_block_samples(4);
        assert_eq!(BlockedBackend::new(cfg).unwrap().config(), cfg);
        assert_eq!(ParallelBackend::new(cfg, 3).unwrap().resolved_threads(), 3);
        assert!(ParallelBackend::new(cfg, 0).unwrap().resolved_threads() >= 1);
    }
}
