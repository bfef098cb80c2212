//! Plans are a pure function of `(spec, shape, key)`: compiling the
//! same inputs from many threads at once — or in any order — yields
//! identical plans and identical faulted arrays. This is the property
//! that makes fault-injected campaigns reproducible at any thread
//! count.

use std::thread;

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use xbar_crossbar::array::CrossbarArray;
use xbar_crossbar::device::DeviceModel;
use xbar_faults::{FaultKey, FaultPlan, FaultSpec};
use xbar_linalg::Matrix;

fn sweep_spec() -> FaultSpec {
    FaultSpec::none()
        .with_stuck_on_rate(0.03)
        .with_stuck_off_rate(0.07)
        .with_variation_sigma(0.2)
        .with_drift(0.05, 0.3, 1000.0)
        .with_line_resistance(1e-4)
}

fn compile_all(spec: &FaultSpec, trials: u64) -> Vec<FaultPlan> {
    (0..trials)
        .map(|t| spec.compile(12, 17, FaultKey::new(424242, t)).unwrap())
        .collect()
}

#[test]
fn concurrent_compilation_matches_serial() {
    let spec = sweep_spec();
    let trials = 8u64;
    let serial = compile_all(&spec, trials);

    // Every thread compiles the full set, racing each other; each must
    // reproduce the serial result exactly.
    let handles: Vec<_> = (0..4)
        .map(|_| thread::spawn(move || compile_all(&spec, trials)))
        .collect();
    for handle in handles {
        let concurrent = handle.join().unwrap();
        assert_eq!(concurrent, serial);
    }
}

#[test]
fn reversed_compilation_order_changes_nothing() {
    let spec = sweep_spec();
    let forward = compile_all(&spec, 6);
    let mut reversed: Vec<_> = (0..6u64)
        .rev()
        .map(|t| spec.compile(12, 17, FaultKey::new(424242, t)).unwrap())
        .collect();
    reversed.reverse();
    assert_eq!(forward, reversed);
}

#[test]
fn faulted_arrays_are_identical_across_threads() {
    let spec = sweep_spec();
    let mut rng = ChaCha8Rng::seed_from_u64(31);
    let w = Matrix::random_uniform(12, 17, -1.0, 1.0, &mut rng);
    let array = CrossbarArray::program(&w, &DeviceModel::ideal(), &mut rng).unwrap();
    let plan = spec.compile(12, 17, FaultKey::new(9, 4)).unwrap();
    let reference = plan.apply(&array).unwrap();

    let handles: Vec<_> = (0..4)
        .map(|_| {
            let (spec, array) = (spec, array.clone());
            thread::spawn(move || {
                spec.compile(12, 17, FaultKey::new(9, 4))
                    .unwrap()
                    .apply(&array)
                    .unwrap()
            })
        })
        .collect();
    for handle in handles {
        assert_eq!(handle.join().unwrap(), reference);
    }
}

#[test]
fn plans_above_one_compile_chunk_are_thread_invariant() {
    // 2·160·256 = 81,920 devices: more than one compile chunk, so the
    // plan is filled on several threads, here also from several
    // compiling threads at once.
    let spec = sweep_spec();
    let key = FaultKey::new(424242, 3);
    let reference = spec.compile(160, 256, key).unwrap();
    let handles: Vec<_> = (0..3)
        .map(|_| thread::spawn(move || spec.compile(160, 256, key).unwrap()))
        .collect();
    for handle in handles {
        assert_eq!(handle.join().unwrap(), reference);
    }
    // Device `d`'s draws depend on `d` alone, so a plan of another
    // shape, small enough to compile inline in one chunk, agrees on
    // every device it shares.
    let narrow = spec.compile(1, 20_000, key).unwrap();
    assert_eq!(
        &reference.drift_factors()[..narrow.num_devices()],
        narrow.drift_factors()
    );
}
