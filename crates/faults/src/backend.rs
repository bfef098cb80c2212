//! [`FaultyBackend`]: fault injection as an [`EvalBackend`] wrapper.

use xbar_crossbar::array::CrossbarArray;
use xbar_crossbar::backend::{BackendKind, EvalBackend, PreparedEval, RngStreams};
use xbar_crossbar::power::PowerModel;
use xbar_crossbar::CrossbarError;

use crate::plan::FaultPlan;

/// An [`EvalBackend`] decorator that applies a [`FaultPlan`] to the
/// array at [`EvalBackend::prepare`] time and evaluates every batch
/// against the faulted copy.
///
/// With a no-op plan (compiled from an empty [`crate::FaultSpec`]) the
/// wrapper delegates directly — no copy, no fault events — so outputs
/// *and* traces are bit-identical to the bare backend; the property
/// tests in `tests/proptest_faults.rs` pin that contract. With a real
/// plan, `prepare` pays one `O(M·N)` faulted-copy materialisation and
/// re-keys the handle to the *source* array's generation
/// ([`PreparedEval::rekey`]), so callers keep driving evaluation with
/// the array they hold while every number comes from the faulted
/// snapshot inside the handle. Staleness tracks the source array: if it
/// is re-programmed or re-mapped, the handle is rejected and the plan
/// is re-applied on the next `prepare`.
#[derive(Debug)]
pub struct FaultyBackend {
    inner: Box<dyn EvalBackend>,
    plan: FaultPlan,
}

impl FaultyBackend {
    /// Wraps a backend with a compiled plan.
    pub fn new(inner: Box<dyn EvalBackend>, plan: FaultPlan) -> Self {
        FaultyBackend { inner, plan }
    }

    /// Convenience constructor from a [`BackendKind`].
    pub fn from_kind(kind: BackendKind, plan: FaultPlan) -> Self {
        FaultyBackend::new(kind.build(), plan)
    }

    /// The plan in effect.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// The faulted array for this call, or `None` when the plan is a
    /// no-op and the original array must be used untouched.
    fn faulted(&self, array: &CrossbarArray) -> xbar_crossbar::Result<Option<CrossbarArray>> {
        if self.plan.is_noop() {
            return Ok(None);
        }
        self.plan
            .apply(array)
            .map(Some)
            // The only fallible path is a shape mismatch, which at this
            // layer is a configuration error.
            .map_err(|_| CrossbarError::InvalidConfig {
                name: "fault_plan_shape",
            })
    }
}

impl EvalBackend for FaultyBackend {
    fn kind(&self) -> BackendKind {
        self.inner.kind()
    }

    fn prepare(&self, array: &CrossbarArray) -> xbar_crossbar::Result<PreparedEval> {
        match self.faulted(array)? {
            None => self.inner.prepare(array),
            Some(faulted) => {
                let mut prepared = self.inner.prepare(&faulted)?;
                // Staleness tracks the array callers actually hold, not
                // the derived faulted copy inside the handle.
                prepared.rekey(array.generation());
                Ok(prepared)
            }
        }
    }

    fn mvm_prepared(
        &self,
        prepared: &PreparedEval,
        array: &CrossbarArray,
        inputs: &[&[f64]],
    ) -> xbar_crossbar::Result<Vec<Vec<f64>>> {
        // The handle already holds the faulted snapshot; the inner
        // backend checks staleness against the (rekeyed) generation.
        self.inner.mvm_prepared(prepared, array, inputs)
    }

    fn power_prepared(
        &self,
        model: &PowerModel,
        prepared: &PreparedEval,
        array: &CrossbarArray,
        inputs: &[&[f64]],
    ) -> xbar_crossbar::Result<Vec<f64>> {
        self.inner.power_prepared(model, prepared, array, inputs)
    }

    fn noisy_mvm_prepared(
        &self,
        prepared: &PreparedEval,
        array: &CrossbarArray,
        inputs: &[&[f64]],
        streams: RngStreams<'_>,
    ) -> xbar_crossbar::Result<Vec<Vec<f64>>> {
        self.inner
            .noisy_mvm_prepared(prepared, array, inputs, streams)
    }

    fn noisy_power_prepared(
        &self,
        model: &PowerModel,
        prepared: &PreparedEval,
        array: &CrossbarArray,
        inputs: &[&[f64]],
        streams: RngStreams<'_>,
    ) -> xbar_crossbar::Result<Vec<f64>> {
        self.inner
            .noisy_power_prepared(model, prepared, array, inputs, streams)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FaultKey, FaultSpec};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use xbar_crossbar::device::DeviceModel;
    use xbar_linalg::Matrix;

    // Prepare-once shorthands for single-batch equivalence checks.
    fn mvm<B: EvalBackend + ?Sized>(
        backend: &B,
        array: &CrossbarArray,
        inputs: &[&[f64]],
    ) -> xbar_crossbar::Result<Vec<Vec<f64>>> {
        let prepared = backend.prepare(array)?;
        backend.mvm_prepared(&prepared, array, inputs)
    }

    fn power<B: EvalBackend + ?Sized>(
        backend: &B,
        model: &PowerModel,
        array: &CrossbarArray,
        inputs: &[&[f64]],
    ) -> xbar_crossbar::Result<Vec<f64>> {
        let prepared = backend.prepare(array)?;
        backend.power_prepared(model, &prepared, array, inputs)
    }

    fn noisy_mvm<B: EvalBackend + ?Sized>(
        backend: &B,
        array: &CrossbarArray,
        inputs: &[&[f64]],
        mut streams: impl FnMut(usize) -> ChaCha8Rng,
    ) -> xbar_crossbar::Result<Vec<Vec<f64>>> {
        let prepared = backend.prepare(array)?;
        backend.noisy_mvm_prepared(&prepared, array, inputs, &mut streams)
    }

    fn noisy_power<B: EvalBackend + ?Sized>(
        backend: &B,
        model: &PowerModel,
        array: &CrossbarArray,
        inputs: &[&[f64]],
        mut streams: impl FnMut(usize) -> ChaCha8Rng,
    ) -> xbar_crossbar::Result<Vec<f64>> {
        let prepared = backend.prepare(array)?;
        backend.noisy_power_prepared(model, &prepared, array, inputs, &mut streams)
    }

    fn programmed(m: usize, n: usize, seed: u64) -> CrossbarArray {
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

    #[test]
    fn noop_plan_is_bit_identical_to_inner() {
        let xbar = programmed(6, 8, 1);
        let inputs = batch(8, 5, 2);
        let refs: Vec<&[f64]> = inputs.iter().map(Vec::as_slice).collect();
        let plan = FaultSpec::none()
            .compile(6, 8, FaultKey::new(0, 0))
            .unwrap();
        for kind in [BackendKind::Naive, BackendKind::Blocked] {
            let bare = kind.build();
            let faulty = FaultyBackend::from_kind(kind, plan.clone());
            assert_eq!(faulty.kind(), kind);
            assert_eq!(
                mvm(&faulty, &xbar, &refs).unwrap(),
                mvm(bare.as_ref(), &xbar, &refs).unwrap()
            );
            let model = PowerModel::default();
            assert_eq!(
                power(&faulty, &model, &xbar, &refs).unwrap(),
                power(bare.as_ref(), &model, &xbar, &refs).unwrap()
            );
        }
    }

    #[test]
    fn faulty_outputs_equal_applying_plan_manually() {
        let xbar = programmed(5, 7, 3);
        let inputs = batch(7, 4, 4);
        let refs: Vec<&[f64]> = inputs.iter().map(Vec::as_slice).collect();
        let spec = FaultSpec::none()
            .with_stuck_off_rate(0.3)
            .with_variation_sigma(0.2);
        let plan = spec.compile(5, 7, FaultKey::new(9, 2)).unwrap();
        let faulted = plan.apply(&xbar).unwrap();
        let faulty = FaultyBackend::from_kind(BackendKind::Blocked, plan);
        let bare = BackendKind::Blocked.build();
        assert_eq!(
            mvm(&faulty, &xbar, &refs).unwrap(),
            mvm(bare.as_ref(), &faulted, &refs).unwrap()
        );
        let model = PowerModel::default();
        assert_eq!(
            power(&faulty, &model, &xbar, &refs).unwrap(),
            power(bare.as_ref(), &model, &faulted, &refs).unwrap()
        );
        // And the faulted array really differs from the pristine one.
        assert_ne!(
            mvm(&faulty, &xbar, &refs).unwrap(),
            mvm(bare.as_ref(), &xbar, &refs).unwrap()
        );
    }

    #[test]
    fn noisy_paths_use_the_faulted_array_and_given_streams() {
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let w = Matrix::random_uniform(4, 6, -1.0, 1.0, &mut rng);
        let device = DeviceModel::ideal().with_read_sigma(0.02);
        let xbar = CrossbarArray::program(&w, &device, &mut rng).unwrap();
        let inputs = batch(6, 3, 6);
        let refs: Vec<&[f64]> = inputs.iter().map(Vec::as_slice).collect();
        let stream = |i: usize| {
            let mut r = ChaCha8Rng::seed_from_u64(77);
            r.set_stream(i as u64);
            r
        };
        let spec = FaultSpec::none().with_variation_sigma(0.1);
        let plan = spec.compile(4, 6, FaultKey::new(1, 1)).unwrap();
        let faulted = plan.apply(&xbar).unwrap();
        let faulty = FaultyBackend::from_kind(BackendKind::Naive, plan);
        let bare = BackendKind::Naive.build();
        assert_eq!(
            noisy_mvm(&faulty, &xbar, &refs, stream).unwrap(),
            noisy_mvm(bare.as_ref(), &faulted, &refs, stream).unwrap()
        );
        let model = PowerModel::default().with_noise(0.05);
        assert_eq!(
            noisy_power(&faulty, &model, &xbar, &refs, stream).unwrap(),
            noisy_power(bare.as_ref(), &model, &faulted, &refs, stream).unwrap()
        );
    }

    #[test]
    fn prepared_handles_carry_the_faulted_snapshot() {
        let xbar = programmed(5, 7, 13);
        let inputs = batch(7, 4, 14);
        let refs: Vec<&[f64]> = inputs.iter().map(Vec::as_slice).collect();
        let spec = FaultSpec::none().with_variation_sigma(0.25);
        let plan = spec.compile(5, 7, FaultKey::new(3, 4)).unwrap();
        let faulted = plan.apply(&xbar).unwrap();
        let faulty = FaultyBackend::from_kind(BackendKind::Blocked, plan);

        // The handle is keyed to the *source* array it was prepared
        // from, yet evaluates the faulted snapshot.
        let prepared = faulty.prepare(&xbar).unwrap();
        assert_eq!(prepared.generation(), xbar.generation());
        let warm = faulty.mvm_prepared(&prepared, &xbar, &refs).unwrap();
        let bare = BackendKind::Blocked.build();
        assert_eq!(warm, mvm(bare.as_ref(), &faulted, &refs).unwrap());

        // Re-mapping the source array stales the handle.
        let remapped = xbar.map_conductances(|_, g| g);
        assert!(matches!(
            faulty.mvm_prepared(&prepared, &remapped, &refs),
            Err(CrossbarError::StalePrepared { .. })
        ));
    }

    #[test]
    fn shape_mismatch_surfaces_as_invalid_config() {
        let plan = FaultSpec::none()
            .with_stuck_on_rate(0.1)
            .compile(3, 3, FaultKey::new(0, 0))
            .unwrap();
        let faulty = FaultyBackend::from_kind(BackendKind::Naive, plan);
        let xbar = programmed(4, 4, 7);
        let inputs = batch(4, 2, 8);
        let refs: Vec<&[f64]> = inputs.iter().map(Vec::as_slice).collect();
        assert!(matches!(
            mvm(&faulty, &xbar, &refs),
            Err(CrossbarError::InvalidConfig {
                name: "fault_plan_shape"
            })
        ));
    }
}
