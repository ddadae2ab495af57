//! Refactor oracle for the FR-FCFS service loop: fixed seeded mixed
//! streams whose statistics, fault tallies and per-request completions
//! are pinned to values recorded before DRAM service was streamed
//! through the scheduling window. Any change to pick order, timing,
//! fault draws or the order of the f64 energy folds shows up here.

use dramsim::{DramConfig, FaultConfig, MemorySystem, Request, RequestId};

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One request of the mixed stream: channel and rank-local reads and
/// writes plus broadcasts, 1–4 bursts each, over a small row pool so
/// row hits, misses and conflicts are all common, with slowly rising
/// arrival cycles that cross the refresh interval.
fn mixed_request(rng: &mut u64, cycle: &mut u64) -> Request {
    let r = splitmix(rng);
    let row = (r >> 8) % 48;
    let col = (r >> 16) % 128;
    let addr = row * (1 << 16) + col * 64;
    let bytes = 64 * (1 + ((r >> 24) % 4) as usize);
    *cycle += (r >> 32) % 8;
    let req = match r % 10 {
        0..=2 => Request::read(addr, bytes),
        3 => Request::write(addr, bytes),
        4..=6 => Request::local_read(addr, bytes),
        7 => Request::local_write(addr, bytes),
        _ => Request::broadcast_write(addr, 64),
    };
    req.at_cycle(*cycle)
}

fn fnv(hash: &mut u64, v: u64) {
    for b in v.to_le_bytes() {
        *hash ^= u64::from(b);
        *hash = hash.wrapping_mul(0x0100_0000_01b3);
    }
}

/// Runs two batches of 1500 requests on 2 channels with ECC faults at
/// 1e-3 and returns the final stats, fault tallies and an FNV digest
/// of every completion in enqueue order.
fn run(seed: u64) -> (String, String, u64) {
    let cfg = DramConfig {
        channels: 2,
        ..DramConfig::default()
    };
    let faults = FaultConfig {
        seed,
        bit_flip_rate: 1e-3,
        ..FaultConfig::off()
    };
    let mut sys = MemorySystem::with_faults(cfg, faults);
    let (mut rng, mut cycle) = (seed, 0);
    for _ in 0..2 {
        for _ in 0..1500 {
            sys.enqueue(mixed_request(&mut rng, &mut cycle));
        }
        sys.try_service_all()
            .expect("ECC at 1e-3 stays recoverable");
    }
    let report = sys.try_service_all().expect("nothing left to fail");
    let mut digest = 0xcbf2_9ce4_8422_2325;
    for i in 0..3000 {
        let c = sys.completion(RequestId(i)).expect("every request retired");
        fnv(&mut digest, c.id.0 as u64);
        fnv(&mut digest, c.data_start);
        fnv(&mut digest, c.finish);
    }
    (
        format!("{:?}", report.stats),
        format!("{:?}", report.faults),
        digest,
    )
}

#[test]
fn mixed_streams_match_the_deferred_drain() {
    let golden = [
        (
            1,
            "MemoryStats { reads: 4478, writes: 2099, row_hits: 3151, row_misses: 2854, \
             activates: 2854, precharges: 2782, broadcast_transfers: 572, \
             channel_bus_busy_cycles: 13872, local_bus_busy_cycles: 12436, \
             channel_bytes: 221952, local_bytes: 198976, elapsed_cycles: 22212, \
             energy: EnergyBreakdown { activate_pj: 5708000.0, array_pj: 4611840.0, \
             io_pj: 8896512.0, broadcast_io_pj: 5622988.799999993, local_io_pj: 3183616.0, \
             background_pj: 7404000.000000001, refresh_pj: 400000.0 } }",
            "FaultStats { injected_bit_flips: 5, ecc_corrected: 5, ecc_detected: 0, \
             ecc_silent_miss: 0, read_retries: 0, row_remaps: 0, bank_remaps: 0, \
             broadcast_drops: 0, broadcast_corruptions: 0, broadcast_retries: 0, \
             broadcast_fallbacks: 0, stall_events: 0, stall_cycles: 0, watchdog_trips: 0, \
             mem_errors: 0, ranks_healthy: 8, ranks_degraded: 0, ranks_tripped: 0 }",
            0x683c_ce05_3162_b49f,
        ),
        (
            2,
            "MemoryStats { reads: 4520, writes: 2089, row_hits: 3154, row_misses: 2868, \
             activates: 2868, precharges: 2789, broadcast_transfers: 587, \
             channel_bus_busy_cycles: 14332, local_bus_busy_cycles: 12104, \
             channel_bytes: 229312, local_bytes: 193664, elapsed_cycles: 22239, \
             energy: EnergyBreakdown { activate_pj: 5736000.0, array_pj: 4624896.0, \
             io_pj: 9203712.0, broadcast_io_pj: 5770444.799999991, local_io_pj: 3098624.0, \
             background_pj: 7413000.0, refresh_pj: 400000.0 } }",
            "FaultStats { injected_bit_flips: 11, ecc_corrected: 6, ecc_detected: 1, \
             ecc_silent_miss: 1, read_retries: 1, row_remaps: 0, bank_remaps: 0, \
             broadcast_drops: 0, broadcast_corruptions: 0, broadcast_retries: 0, \
             broadcast_fallbacks: 0, stall_events: 0, stall_cycles: 0, watchdog_trips: 0, \
             mem_errors: 0, ranks_healthy: 8, ranks_degraded: 0, ranks_tripped: 0 }",
            0xf4af_63cb_f3f0_0e7b,
        ),
        (
            3,
            "MemoryStats { reads: 4551, writes: 2108, row_hits: 3122, row_misses: 2947, \
             activates: 2947, precharges: 2870, broadcast_transfers: 590, \
             channel_bus_busy_cycles: 14788, local_bus_busy_cycles: 11848, \
             channel_bytes: 236608, local_bytes: 189568, elapsed_cycles: 22589, \
             energy: EnergyBreakdown { activate_pj: 5894000.0, array_pj: 4660992.0, \
             io_pj: 9544704.0, broadcast_io_pj: 5799935.999999993, local_io_pj: 3033088.0, \
             background_pj: 7529666.666666668, refresh_pj: 400000.0 } }",
            "FaultStats { injected_bit_flips: 8, ecc_corrected: 4, ecc_detected: 2, \
             ecc_silent_miss: 0, read_retries: 2, row_remaps: 0, bank_remaps: 0, \
             broadcast_drops: 0, broadcast_corruptions: 0, broadcast_retries: 0, \
             broadcast_fallbacks: 0, stall_events: 0, stall_cycles: 0, watchdog_trips: 0, \
             mem_errors: 0, ranks_healthy: 8, ranks_degraded: 0, ranks_tripped: 0 }",
            0x0b1a_f863_e8c5_8e28,
        ),
    ];
    for (seed, stats, faults, digest) in golden {
        let (s, f, d) = run(seed);
        assert_eq!(s, stats, "seed {seed}: stats");
        assert_eq!(f, faults, "seed {seed}: fault tallies");
        assert_eq!(d, digest, "seed {seed}: completion digest {d:#018x}");
    }
}
