//! Compiled fault plans: per-device draws keyed by
//! `(campaign_seed, trial_index, device_index)`.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};
use xbar_crossbar::array::CrossbarArray;
use xbar_linalg::par;

use crate::spec::FaultSpec;
use crate::{FaultsError, Result};

/// Domain-separation constant mixed into every fault seed so fault
/// draws can never collide with the runtime's per-trial RNG streams or
/// the oracle's noise streams, which use the raw campaign seed.
const FAULT_DOMAIN: u64 = 0xFA17_5EED_D00D_0001;

/// SplitMix64 — the standard 64-bit finalising mixer. Used to derive
/// one well-mixed base seed per `(campaign_seed, trial_index)` pair.
pub(crate) fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Same Box–Muller transform the crossbar device model uses for its
/// programming noise, reproduced here so fault draws stay self-contained.
pub(crate) fn gaussian<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// The deterministic keying for one trial's fault draws.
///
/// The contract (documented in DESIGN.md and relied on by the property
/// tests): device `d`'s draws come from
/// `ChaCha8Rng::seed_from_u64(splitmix64(campaign_seed ^ splitmix64(trial_index ^ DOMAIN)))`
/// with `set_stream(d)`. Each device owns a whole counter-mode stream,
/// so draws are independent of compilation order, thread count, and of
/// every other RNG consumer in the workspace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultKey {
    /// The campaign-level seed (shared by every trial of a campaign).
    pub campaign_seed: u64,
    /// The trial index within the campaign.
    pub trial_index: u64,
}

impl FaultKey {
    /// A key for the given campaign seed and trial index.
    pub const fn new(campaign_seed: u64, trial_index: u64) -> Self {
        FaultKey {
            campaign_seed,
            trial_index,
        }
    }

    /// The keyed generator on stream 0, before any draw. Device `d`'s
    /// RNG is a clone of it moved to stream `d`, which derives the seed
    /// once per plan instead of once per device.
    fn base_rng(&self) -> ChaCha8Rng {
        let base = splitmix64(self.campaign_seed ^ splitmix64(self.trial_index ^ FAULT_DOMAIN));
        ChaCha8Rng::seed_from_u64(base)
    }
}

/// Devices per unit of parallel work in [`FaultSpec::compile`]. A plan
/// of at most this many devices compiles inline on the caller's thread,
/// so campaign trials that already run one per core do not oversubscribe.
const COMPILE_CHUNK: usize = 1 << 16;

/// A spec/key pair — the serializable "inject these faults for this
/// trial" value that configs (e.g. `OracleConfig`) carry.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FaultInjection {
    /// What to inject.
    pub spec: FaultSpec,
    /// The deterministic keying of the per-device draws.
    pub key: FaultKey,
}

impl FaultInjection {
    /// Pairs a spec with a key.
    pub const fn new(spec: FaultSpec, key: FaultKey) -> Self {
        FaultInjection { spec, key }
    }

    /// Compiles the pair for an `outputs x inputs` array — shorthand
    /// for [`FaultSpec::compile`].
    ///
    /// # Errors
    ///
    /// Propagates [`FaultSpec::compile`].
    pub fn compile(&self, outputs: usize, inputs: usize) -> Result<FaultPlan> {
        self.spec.compile(outputs, inputs, self.key)
    }
}

/// The stuck-at decision for one device.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StuckKind {
    /// Not stuck; variation and drift apply.
    Free,
    /// Pinned to `g_max`.
    On,
    /// Pinned to `g_min`.
    Off,
}

/// A [`FaultSpec`] compiled for one array shape under one [`FaultKey`]:
/// every per-device decision is drawn and frozen, so applying the plan
/// is a deterministic, RNG-free transform.
///
/// Plans compare equal iff all decisions are equal ([`PartialEq`]),
/// which the thread-invariance tests use directly.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    spec: FaultSpec,
    key: FaultKey,
    outputs: usize,
    inputs: usize,
    /// Per-device stuck decisions (`2·M·N`, G⁺ then G⁻ row-major).
    /// Empty for a no-op plan.
    stuck: Vec<StuckKind>,
    /// Per-device lognormal variation factors (1.0 = untouched).
    scale: Vec<f64>,
    /// Per-device drift factors in `(0, 1]` (1.0 = untouched).
    drift: Vec<f64>,
    /// Per-input-line attenuation factors (length `N`).
    line_scale: Vec<f64>,
    stuck_on: usize,
    stuck_off: usize,
}

impl FaultSpec {
    /// Compiles this spec for an `outputs x inputs` array under `key`,
    /// drawing every per-device decision from its own
    /// `(campaign_seed, trial_index, device_index)` RNG stream.
    ///
    /// Every device consumes the same fixed draw sequence (stuck
    /// uniform, variation gaussian, drift gaussian) regardless of which
    /// effects are enabled, so enabling one fault model never reshuffles
    /// another's draws.
    ///
    /// # Errors
    ///
    /// Propagates [`FaultSpec::validate`].
    pub fn compile(&self, outputs: usize, inputs: usize, key: FaultKey) -> Result<FaultPlan> {
        self.validate()?;
        xbar_obs::count(xbar_obs::names::XBAR_FAULT_PLAN_COMPILE, 1);
        if self.is_empty() {
            xbar_obs::observe(xbar_obs::names::XBAR_FAULT_STUCK_FRACTION, 0.0);
            return Ok(FaultPlan {
                spec: *self,
                key,
                outputs,
                inputs,
                stuck: Vec::new(),
                scale: Vec::new(),
                drift: Vec::new(),
                line_scale: Vec::new(),
                stuck_on: 0,
                stuck_off: 0,
            });
        }
        let num_devices = 2 * outputs * inputs;
        let mut stuck = vec![StuckKind::Free; num_devices];
        let mut scale = vec![1.0; num_devices];
        let mut drift = vec![1.0; num_devices];
        let base = key.base_rng();
        // Each device draws from its own stream, so filling the arrays
        // in place chunk by chunk on any number of threads gives the
        // same plan as one sequential pass.
        let mut chunks: Vec<_> = stuck
            .chunks_mut(COMPILE_CHUNK)
            .zip(scale.chunks_mut(COMPILE_CHUNK))
            .zip(drift.chunks_mut(COMPILE_CHUNK))
            .collect();
        par::for_each_chunk(&mut chunks, 0, |first, block| {
            for (c, ((stuck, scale), drift)) in (first..).zip(block) {
                let devices = stuck.iter_mut().zip(scale.iter_mut()).zip(drift.iter_mut());
                for (d, ((kind, s), f)) in (c * COMPILE_CHUNK..).zip(devices) {
                    let mut rng = base.clone();
                    rng.set_stream(d as u64);
                    (*kind, *s, *f) = self.draw_device(&mut rng);
                }
            }
        });
        let stuck_on = stuck.iter().filter(|&&k| k == StuckKind::On).count();
        let stuck_off = stuck.iter().filter(|&&k| k == StuckKind::Off).count();
        let line_scale = (0..inputs)
            .map(|j| {
                if self.line_resistance > 0.0 {
                    1.0 / (1.0 + self.line_resistance * j as f64)
                } else {
                    1.0
                }
            })
            .collect();
        if num_devices > 0 {
            xbar_obs::observe(
                xbar_obs::names::XBAR_FAULT_STUCK_FRACTION,
                (stuck_on + stuck_off) as f64 / num_devices as f64,
            );
        }
        Ok(FaultPlan {
            spec: *self,
            key,
            outputs,
            inputs,
            stuck,
            scale,
            drift,
            line_scale,
            stuck_on,
            stuck_off,
        })
    }

    /// One device's frozen decisions — stuck kind, variation factor,
    /// drift factor — from its own RNG, always consuming the same three
    /// draws (see [`FaultSpec::compile`]).
    fn draw_device(&self, rng: &mut ChaCha8Rng) -> (StuckKind, f64, f64) {
        let u: f64 = rng.gen_range(0.0..1.0);
        let z_var = gaussian(rng);
        let z_drift = gaussian(rng);
        let kind = if u < self.stuck_on_rate {
            StuckKind::On
        } else if u < self.stuck_on_rate + self.stuck_off_rate {
            StuckKind::Off
        } else {
            StuckKind::Free
        };
        let scale = if self.variation_sigma > 0.0 {
            (self.variation_sigma * z_var).exp()
        } else {
            1.0
        };
        let drift = if self.drift_active() {
            let nu_d = self.drift_nu * (self.drift_sigma * z_drift).exp();
            (1.0 + self.drift_time).powf(-nu_d)
        } else {
            1.0
        };
        (kind, scale, drift)
    }
}

impl FaultPlan {
    /// The spec this plan was compiled from.
    pub fn spec(&self) -> &FaultSpec {
        &self.spec
    }

    /// The key the per-device draws were taken under.
    pub fn key(&self) -> FaultKey {
        self.key
    }

    /// The `(outputs, inputs)` array shape this plan targets.
    pub fn shape(&self) -> (usize, usize) {
        (self.outputs, self.inputs)
    }

    /// Whether applying this plan is guaranteed to return a
    /// bit-identical copy (compiled from an empty spec).
    pub fn is_noop(&self) -> bool {
        self.spec.is_empty()
    }

    /// Devices pinned to `g_max`.
    pub fn stuck_on(&self) -> usize {
        self.stuck_on
    }

    /// Devices pinned to `g_min`.
    pub fn stuck_off(&self) -> usize {
        self.stuck_off
    }

    /// Total stuck devices (on + off).
    pub fn stuck_devices(&self) -> usize {
        self.stuck_on + self.stuck_off
    }

    /// Total devices covered by the plan, `2·M·N`.
    pub fn num_devices(&self) -> usize {
        2 * self.outputs * self.inputs
    }

    /// Per-device drift factors in `(0, 1]` (1.0 = untouched), in the
    /// canonical device order (G⁺ row-major then G⁻). Empty for a no-op
    /// plan. Exposed so lifetime tests can check the monotone-decay
    /// contract: at a fixed key, each device's factor is non-increasing
    /// in [`FaultSpec::drift_time`].
    pub fn drift_factors(&self) -> &[f64] {
        &self.drift
    }

    /// Materialises a faulted copy of a programmed array.
    ///
    /// Per free device: the variation factor is applied and clamped to
    /// the device's conductance range (mirroring programming), then the
    /// drift factor relaxes the value toward `g_min`. Stuck devices are
    /// pinned to their rail. Finally the per-line attenuation scales
    /// every device on its input line, stuck or not — wire resistance
    /// is downstream of the device.
    ///
    /// A no-op plan returns an exact clone; untouched effects never
    /// perturb bits (factors of exactly 1.0 skip the arithmetic).
    ///
    /// # Errors
    ///
    /// Returns [`FaultsError::ShapeMismatch`] if the array's shape is
    /// not the one the plan was compiled for.
    pub fn apply(&self, array: &CrossbarArray) -> Result<CrossbarArray> {
        let got = (array.num_outputs(), array.num_inputs());
        if got != (self.outputs, self.inputs) {
            return Err(FaultsError::ShapeMismatch {
                expected: (self.outputs, self.inputs),
                got,
            });
        }
        let _span = xbar_obs::span(xbar_obs::names::SPAN_FAULT_APPLY);
        xbar_obs::count(xbar_obs::names::XBAR_FAULT_APPLY, 1);
        xbar_obs::count(
            xbar_obs::names::XBAR_FAULT_STUCK_DEVICES,
            self.stuck_devices() as u64,
        );
        if self.is_noop() {
            return Ok(array.clone());
        }
        let device = *array.device();
        let plane = self.outputs * self.inputs;
        Ok(array.map_conductances(|idx, g| {
            let j = (idx % plane) % self.inputs;
            let mut out = match self.stuck[idx] {
                StuckKind::On => device.g_max,
                StuckKind::Off => device.g_min,
                StuckKind::Free => {
                    let mut out = g;
                    let s = self.scale[idx];
                    if s != 1.0 {
                        out = (out * s).clamp(device.g_min, device.g_max);
                    }
                    let d = self.drift[idx];
                    if d != 1.0 {
                        out = device.g_min + (out - device.g_min) * d;
                    }
                    out
                }
            };
            let ls = self.line_scale[j];
            if ls != 1.0 {
                out *= ls;
            }
            out
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xbar_crossbar::device::DeviceModel;
    use xbar_linalg::Matrix;

    fn programmed(m: usize, n: usize, seed: u64) -> CrossbarArray {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let w = Matrix::random_uniform(m, n, -1.0, 1.0, &mut rng);
        CrossbarArray::program(&w, &DeviceModel::ideal(), &mut rng).unwrap()
    }

    #[test]
    fn empty_spec_compiles_to_noop_and_applies_bit_identically() {
        let plan = FaultSpec::none()
            .compile(5, 7, FaultKey::new(1, 2))
            .unwrap();
        assert!(plan.is_noop());
        assert_eq!(plan.stuck_devices(), 0);
        let xbar = programmed(5, 7, 3);
        assert_eq!(plan.apply(&xbar).unwrap(), xbar);
    }

    #[test]
    fn same_key_same_plan_different_key_different_plan() {
        let spec = FaultSpec::none()
            .with_stuck_off_rate(0.2)
            .with_variation_sigma(0.1);
        let a = spec.compile(6, 9, FaultKey::new(42, 3)).unwrap();
        let b = spec.compile(6, 9, FaultKey::new(42, 3)).unwrap();
        assert_eq!(a, b);
        let other_trial = spec.compile(6, 9, FaultKey::new(42, 4)).unwrap();
        let other_seed = spec.compile(6, 9, FaultKey::new(43, 3)).unwrap();
        assert_ne!(a, other_trial);
        assert_ne!(a, other_seed);
    }

    #[test]
    fn stuck_devices_land_on_their_rails() {
        let device = DeviceModel {
            g_min: 0.05,
            g_max: 1.0,
            ..DeviceModel::ideal()
        };
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        let w = Matrix::random_uniform(8, 8, -1.0, 1.0, &mut rng);
        let xbar = CrossbarArray::program(&w, &device, &mut rng).unwrap();
        let spec = FaultSpec::none()
            .with_stuck_on_rate(0.25)
            .with_stuck_off_rate(0.25);
        let plan = spec.compile(8, 8, FaultKey::new(7, 0)).unwrap();
        assert!(plan.stuck_on() > 0 && plan.stuck_off() > 0);
        let faulted = plan.apply(&xbar).unwrap();
        let flat = |a: &CrossbarArray, idx: usize| {
            let plane = 64;
            let (mat, k) = if idx < plane {
                (a.g_plus().clone(), idx)
            } else {
                (a.g_minus().clone(), idx - plane)
            };
            mat[(k / 8, k % 8)]
        };
        for idx in 0..plan.num_devices() {
            match plan.stuck[idx] {
                StuckKind::On => assert_eq!(flat(&faulted, idx), device.g_max),
                StuckKind::Off => assert_eq!(flat(&faulted, idx), device.g_min),
                StuckKind::Free => assert_eq!(flat(&faulted, idx), flat(&xbar, idx)),
            }
        }
    }

    #[test]
    fn drift_relaxes_conductances_toward_g_min() {
        let device = DeviceModel {
            g_min: 0.1,
            g_max: 1.0,
            ..DeviceModel::ideal()
        };
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        let w = Matrix::random_uniform(6, 6, -1.0, 1.0, &mut rng);
        let xbar = CrossbarArray::program(&w, &device, &mut rng).unwrap();
        let spec = FaultSpec::none().with_drift(0.1, 0.3, 1000.0);
        let plan = spec.compile(6, 6, FaultKey::new(5, 1)).unwrap();
        let faulted = plan.apply(&xbar).unwrap();
        for i in 0..6 {
            for j in 0..6 {
                assert!(faulted.g_plus()[(i, j)] <= xbar.g_plus()[(i, j)] + 1e-15);
                assert!(faulted.g_plus()[(i, j)] >= device.g_min - 1e-15);
            }
        }
        // Longer drift times relax further (per-device exponents match).
        let longer = FaultSpec::none()
            .with_drift(0.1, 0.3, 10_000.0)
            .compile(6, 6, FaultKey::new(5, 1))
            .unwrap()
            .apply(&xbar)
            .unwrap();
        let sum = |a: &CrossbarArray| a.input_line_conductances().iter().sum::<f64>();
        assert!(sum(&longer) < sum(&faulted));
    }

    #[test]
    fn line_resistance_attenuates_far_lines_only() {
        let xbar = programmed(4, 5, 13);
        let spec = FaultSpec::none().with_line_resistance(0.01);
        let plan = spec.compile(4, 5, FaultKey::new(1, 0)).unwrap();
        let faulted = plan.apply(&xbar).unwrap();
        let before = xbar.input_line_conductances();
        let after = faulted.input_line_conductances();
        // Line 0 sits at the driver: untouched, bit for bit.
        assert_eq!(after[0], before[0]);
        for j in 1..5 {
            let want = before[j] / (1.0 + 0.01 * j as f64);
            assert!((after[j] - want).abs() < 1e-12, "line {j}");
        }
    }

    #[test]
    fn apply_rejects_shape_mismatch() {
        let plan = FaultSpec::none()
            .with_stuck_off_rate(0.1)
            .compile(3, 4, FaultKey::new(0, 0))
            .unwrap();
        let xbar = programmed(4, 3, 1);
        assert!(matches!(
            plan.apply(&xbar),
            Err(FaultsError::ShapeMismatch {
                expected: (3, 4),
                got: (4, 3)
            })
        ));
    }

    #[test]
    fn chunked_compile_matches_the_documented_per_device_keying() {
        // Above one compile chunk, so the plan is filled chunk by chunk
        // on several threads.
        let (outputs, inputs) = (129, 256);
        let num_devices = 2 * outputs * inputs;
        assert!(num_devices > COMPILE_CHUNK);
        let spec = FaultSpec::none()
            .with_stuck_on_rate(0.01)
            .with_stuck_off_rate(0.02)
            .with_variation_sigma(0.1)
            .with_drift(0.05, 0.2, 100.0);
        let key = FaultKey::new(0xC0FFEE, 9);
        let plan = spec.compile(outputs, inputs, key).unwrap();
        // Every device: the first and last, and both sides of every chunk
        // boundary.
        for d in 0..num_devices {
            let mut rng = ChaCha8Rng::seed_from_u64(splitmix64(
                key.campaign_seed ^ splitmix64(key.trial_index ^ FAULT_DOMAIN),
            ));
            rng.set_stream(d as u64);
            let u: f64 = rng.gen_range(0.0..1.0);
            let z_var = gaussian(&mut rng);
            let z_drift = gaussian(&mut rng);
            let kind = if u < 0.01 {
                StuckKind::On
            } else if u < 0.01 + 0.02 {
                StuckKind::Off
            } else {
                StuckKind::Free
            };
            let nu_d = 0.05 * (0.2 * z_drift).exp();
            assert_eq!(plan.stuck[d], kind, "device {d}");
            assert_eq!(
                plan.scale[d].to_bits(),
                (0.1 * z_var).exp().to_bits(),
                "device {d}"
            );
            assert_eq!(
                plan.drift[d].to_bits(),
                101.0_f64.powf(-nu_d).to_bits(),
                "device {d}"
            );
        }
        let on = plan.stuck.iter().filter(|&&k| k == StuckKind::On).count();
        assert_eq!(
            (plan.stuck_on(), plan.stuck_devices()),
            (on, on + plan.stuck_off())
        );
    }

    #[test]
    fn injection_roundtrips_through_json() {
        let inj = FaultInjection::new(
            FaultSpec::none().with_stuck_on_rate(0.05),
            FaultKey::new(42, 7),
        );
        let text = serde_json::to_string(&inj).unwrap();
        let back: FaultInjection = serde_json::from_str(&text).unwrap();
        assert_eq!(back, inj);
        assert_eq!(
            inj.compile(4, 4).unwrap(),
            inj.spec.compile(4, 4, inj.key).unwrap()
        );
    }
}
