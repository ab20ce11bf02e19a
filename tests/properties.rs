//! Randomised property tests of the core data structures and invariants,
//! spanning crates. Each property runs many cases drawn from a fixed-seed
//! [`hp_rand`] stream, so the suite is fully deterministic (no external
//! property-testing dependency, no flaky shrink state).

use hp_rand::rngs::SmallRng;
use hp_rand::{Rng, SeedableRng};
use hyperplane::device::monitoring::MonitoringSet;
use hyperplane::device::ready_set::{PpaKind, ReadySet, ServicePolicy};
use hyperplane::mem::system::{MemSystem, MemSystemConfig};
use hyperplane::mem::types::{AccessKind, Addr, CoreId, HitLevel};
use hyperplane::prelude::*;
use hyperplane::sim::stats::Histogram;
use hyperplane::workloads::aes::Aes256;
use hyperplane::workloads::raid::PqRaid;
use hyperplane::workloads::reed_solomon::ReedSolomon;
use std::collections::{HashMap, HashSet};

/// The Cuckoo monitoring set behaves exactly like a map from QID to
/// (line, armed) under any operation sequence: failed inserts leave no
/// trace. Besides the light one-bank table, near-full tables at one and
/// eight banks run enough inserts that walks relocate entries and
/// overflowing walks roll back.
#[test]
fn monitoring_set_matches_model() {
    use hyperplane::mem::types::LineAddr;
    use std::collections::hash_map::Entry::Vacant;
    let mut rng = SmallRng::seed_from_u64(0xA11C_E501);
    // (entries, banks, qids, max ops, cases, loaded)
    let shapes = [
        (256, 1, 64u32, 200usize, 200, false),
        (256, 1, 384, 1500, 12, true),
        (2048, 8, 3072, 12_000, 4, true),
    ];
    for (entries, banks, qids, max_ops, cases, loaded) in shapes {
        let (mut conflicts, mut relocations) = (0, 0);
        for case in 0..cases {
            let mut ms = MonitoringSet::with_shape(entries, banks, MonitoringSet::DEFAULT_WAYS);
            let mut model: HashMap<u32, bool> = HashMap::new(); // qid -> armed
            for _ in 0..rng.random_range(1..max_ops) {
                let q = rng.random_range(0..qids);
                let line = LineAddr(1000 + q as u64);
                let ctx = format!("{entries}x{banks} case {case}: q{q}");
                match rng.random_range(0..7u8) {
                    0..=2 => {
                        // insert if absent
                        if let Vacant(slot) = model.entry(q) {
                            match ms.insert(QueueId(q), line) {
                                Ok(()) => {
                                    slot.insert(true);
                                }
                                Err(c) => assert_eq!(c.qid, QueueId(q), "{ctx}"),
                            }
                        }
                    }
                    3 => {
                        let expect = model.get(&q).copied() == Some(true);
                        assert_eq!(ms.snoop(line).is_some(), expect, "{ctx}: snoop");
                        if expect {
                            model.insert(q, false);
                        }
                    }
                    4 => {
                        let armed = rng.random_bool(0.5);
                        let present = model.contains_key(&q);
                        let got = if armed {
                            ms.arm(QueueId(q))
                        } else {
                            ms.disarm(QueueId(q))
                        };
                        assert_eq!(got, present, "{ctx}: arm({armed})");
                        if present {
                            model.insert(q, armed);
                        }
                    }
                    5 => {
                        let present = model.remove(&q).is_some();
                        assert_eq!(ms.remove(QueueId(q)).is_some(), present, "{ctx}: remove");
                    }
                    _ => {
                        let armed = model.get(&q).copied();
                        assert_eq!(ms.is_armed(QueueId(q)), armed == Some(true), "{ctx}");
                        assert_eq!(ms.line_of(QueueId(q)), armed.map(|_| line), "{ctx}");
                    }
                }
            }
            assert_eq!(ms.occupancy(), model.len());
            conflicts += ms.stats().conflicts;
            relocations += ms.stats().relocations;
        }
        if loaded {
            assert!(
                conflicts > 0 && relocations > 0,
                "{entries}x{banks}: {conflicts} conflicts, {relocations} relocations"
            );
        }
    }
}

/// The circular first-fit both PPA designs compute (§IV-B): the first
/// ready QID at or after the priority pointer, wrapping; the grant clears
/// its ready bit and moves the pointer past it.
fn circular_first_fit(ready: &mut [bool], pos: &mut usize) -> Option<QueueId> {
    let n = ready.len();
    let idx = (0..n).map(|i| (*pos + i) % n).find(|&i| ready[i])?;
    ready[idx] = false;
    *pos = (idx + 1) % n;
    Some(QueueId(idx as u32))
}

/// The ready set's round-robin select makes the decision either PPA
/// design would, on arbitrary ready sets over long grant sequences:
/// checked against a one-flag-per-QID model of the arbiter.
#[test]
fn ppa_implementations_equivalent() {
    let mut rng = SmallRng::seed_from_u64(0xA11C_E502);
    for _case in 0..150 {
        let n = rng.random_range(1..200usize);
        let mut rs = ReadySet::new(n, ServicePolicy::RoundRobin);
        let mut ready = vec![false; n];
        let mut pos = 0usize;
        let n_acts = rng.random_range(0..300usize);
        for _ in 0..n_acts {
            let q = QueueId(rng.random_range(0..200u32) % n as u32);
            rs.activate(q);
            ready[q.0 as usize] = true;
            if rng.random_range(0..3u8) == 0 {
                assert_eq!(rs.select(), circular_first_fit(&mut ready, &mut pos));
            }
        }
        loop {
            let (x, y) = (rs.select(), circular_first_fit(&mut ready, &mut pos));
            assert_eq!(x, y);
            if x.is_none() {
                break;
            }
        }
    }
}

/// Round-robin never grants the same queue twice while others are
/// continuously backlogged (fairness / starvation freedom).
#[test]
fn round_robin_starvation_free() {
    let mut rng = SmallRng::seed_from_u64(0xA11C_E503);
    for _case in 0..100 {
        let n = rng.random_range(2..64usize);
        let rounds = rng.random_range(1..20usize);
        let mut rs = ReadySet::new(n, ServicePolicy::RoundRobin);
        let mut counts = vec![0u32; n];
        for _ in 0..rounds * n {
            for q in 0..n {
                rs.activate(QueueId(q as u32));
            }
            let q = rs.select().expect("all backlogged");
            counts[q.0 as usize] += 1;
        }
        let min = counts.iter().min().copied().expect("nonempty");
        let max = counts.iter().max().copied().expect("nonempty");
        assert!(max - min <= 1, "unfair grants: {counts:?}");
    }
}

/// Reed–Solomon reconstructs any erasure pattern with <= m losses.
#[test]
fn reed_solomon_recovers_any_tolerable_erasure() {
    let mut rng = SmallRng::seed_from_u64(0xA11C_E504);
    for _case in 0..60 {
        let k = rng.random_range(2..8usize);
        let m = rng.random_range(1..4usize);
        let len = rng.random_range(1..128usize);
        let seed: u64 = rng.random();
        let rs = ReedSolomon::new(k, m).expect("valid geometry");
        let data: Vec<Vec<u8>> = (0..k)
            .map(|i| {
                (0..len)
                    .map(|j| ((seed as usize + i * 31 + j * 7) % 256) as u8)
                    .collect()
            })
            .collect();
        let parity = rs.encode(&data).expect("well-formed");
        let mut shards: Vec<Option<Vec<u8>>> = data
            .iter()
            .cloned()
            .map(Some)
            .chain(parity.into_iter().map(Some))
            .collect();
        let mut lost = HashSet::new();
        let n_lost = rng.random_range(1..4usize).min(m);
        for _ in 0..n_lost {
            lost.insert(rng.random::<u16>() as usize % (k + m));
        }
        for &l in &lost {
            shards[l] = None;
        }
        let rec = rs.reconstruct(&shards).expect("within tolerance");
        assert_eq!(rec, data);
    }
}

/// RAID P+Q rebuilds any double failure bit-exactly.
#[test]
fn raid_pq_rebuilds_any_pair() {
    let mut rng = SmallRng::seed_from_u64(0xA11C_E505);
    for _case in 0..60 {
        let n = rng.random_range(2..12usize);
        let len = rng.random_range(1..96usize);
        let seed: u64 = rng.random();
        let raid = PqRaid::new(n).expect("valid geometry");
        let data: Vec<Vec<u8>> = (0..n)
            .map(|i| {
                (0..len)
                    .map(|j| ((seed as usize + i * 131 + j * 3) % 256) as u8)
                    .collect()
            })
            .collect();
        let (p, q) = raid.compute_pq(&data).expect("well-formed");
        let x = rng.random::<u8>() as usize % n;
        let y = rng.random::<u8>() as usize % n;
        if x != y {
            let (dx, dy) = raid.recover_two(&data, x, y, &p, &q).expect("two failures");
            let (lo, hi) = if x < y { (x, y) } else { (y, x) };
            assert_eq!(dx, data[lo].clone());
            assert_eq!(dy, data[hi].clone());
        } else {
            let d = raid.recover_one(&data, x, &p).expect("single failure");
            assert_eq!(d, data[x].clone());
        }
    }
}

/// AES-256-CBC decrypt(encrypt(x)) == x for arbitrary block-aligned
/// payloads, keys, and IVs.
#[test]
fn aes_cbc_roundtrip() {
    let mut rng = SmallRng::seed_from_u64(0xA11C_E506);
    for _case in 0..40 {
        let mut key = [0u8; 32];
        let mut iv = [0u8; 16];
        for b in key.iter_mut() {
            *b = rng.random();
        }
        for b in iv.iter_mut() {
            *b = rng.random();
        }
        let blocks = rng.random_range(1..16usize);
        let seed: u64 = rng.random();
        let aes = Aes256::new(&key);
        let original: Vec<u8> = (0..blocks * 16)
            .map(|i| ((seed as usize).wrapping_mul(31).wrapping_add(i * 7) % 256) as u8)
            .collect();
        let mut data = original.clone();
        aes.encrypt_cbc(&iv, &mut data).expect("aligned");
        assert_ne!(&data, &original);
        aes.decrypt_cbc(&iv, &mut data).expect("aligned");
        assert_eq!(data, original);
    }
}

/// Histogram percentiles are within the documented relative-error bound of
/// exact order statistics.
#[test]
fn histogram_percentile_bounded_error() {
    let mut rng = SmallRng::seed_from_u64(0xA11C_E507);
    for _case in 0..100 {
        let n = rng.random_range(10..500usize);
        let values: Vec<u64> = (0..n).map(|_| rng.random_range(1..1_000_000u64)).collect();
        let p = 1.0 + rng.random::<f64>() * 99.0;
        let mut h = Histogram::new();
        for &v in &values {
            h.record(v);
        }
        let mut sorted = values.clone();
        sorted.sort_unstable();
        let rank = ((p / 100.0) * sorted.len() as f64).ceil().max(1.0) as usize - 1;
        let exact = sorted[rank] as f64;
        let approx = h.percentile(p).expect("non-empty histogram") as f64;
        assert!(
            (approx - exact).abs() / exact < 0.05,
            "p{p}: approx {approx} exact {exact}"
        );
    }
}

/// Coherence safety: after any access sequence, a store by one core
/// invalidates all other cores' copies (no stale hits).
#[test]
fn mesi_no_stale_copies() {
    let mut rng = SmallRng::seed_from_u64(0xA11C_E509);
    for _case in 0..100 {
        let mut mem = MemSystem::new(MemSystemConfig::cmp(4));
        let mut last_writer: HashMap<u64, usize> = HashMap::new();
        let n_ops = rng.random_range(1..200usize);
        for _ in 0..n_ops {
            let core = rng.random_range(0..4usize);
            let lineno = rng.random_range(0..8u64);
            let is_store = rng.random::<bool>();
            let addr = Addr(0x10_000 + lineno * 64);
            let kind = if is_store {
                AccessKind::Store
            } else {
                AccessKind::Load
            };
            let r = mem.access(CoreId(core), addr, kind);
            if is_store {
                last_writer.insert(lineno, core);
            } else if let Some(&w) = last_writer.get(&lineno) {
                // A load by a non-writer immediately after a store cannot
                // be a (stale) L1 hit unless this core reloaded since.
                let _ = w;
                assert!(matches!(
                    r.level,
                    HitLevel::L1 | HitLevel::Llc | HitLevel::RemoteL1 | HitLevel::Memory
                ));
            }
        }
    }
}

/// The hierarchical summary-pyramid select returns exactly what the flat
/// packed-word circular scan (the pre-hierarchy oracle) computes, at
/// every scale tier from one leaf word to a million QIDs. `rr_next` is
/// mirrored externally: round-robin advances to `granted + 1` after
/// every grant, so the mirrored position feeds the oracle the same
/// priority point the pyramid descends from.
#[test]
fn hierarchical_select_matches_flat_scan_across_scales() {
    let mut rng = SmallRng::seed_from_u64(0xA11C_E50A);
    for &n in &[64usize, 1024, 65_536, 1_048_576] {
        let cases = if n > 100_000 { 3 } else { 15 };
        for _case in 0..cases {
            let mut rs = ReadySet::new(n, ServicePolicy::RoundRobin);
            let mut pos = 0usize; // external mirror of rr_next
            for _ in 0..400 {
                match rng.random_range(0..6u8) {
                    0..=2 => {
                        // Activate: scattered, or hugging a leaf-word
                        // boundary (the summary set/clear edges).
                        let q = if rng.random::<bool>() {
                            rng.random_range(0..n as u64)
                        } else {
                            let word = rng.random_range(0..n as u64 / 64) * 64;
                            (word + [0, 1, 63][rng.random_range(0..3usize)]).min(n as u64 - 1)
                        };
                        rs.activate(QueueId(q as u32));
                    }
                    3 => rs.disable(QueueId(rng.random_range(0..n as u64) as u32)),
                    4 => rs.enable(QueueId(rng.random_range(0..n as u64) as u32)),
                    _ => {
                        let expect = rs.flat_first_fit(pos);
                        let got = rs.select();
                        assert_eq!(got.map(|q| q.0 as usize), expect, "n={n} pos={pos}");
                        if let Some(idx) = expect {
                            pos = (idx + 1) % n;
                        }
                    }
                }
            }
            // Drain: every remaining live bit comes out in flat-scan order.
            loop {
                let expect = rs.flat_first_fit(pos);
                let got = rs.select();
                assert_eq!(got.map(|q| q.0 as usize), expect, "drain n={n} pos={pos}");
                match expect {
                    Some(idx) => pos = (idx + 1) % n,
                    None => break,
                }
            }
            assert_eq!(rs.ready_count(), 0, "n={n}: drain left live bits");
        }
    }
}

/// PPA gate-level estimates match naive oracles at the scale tiers and
/// at random widths: Brent–Kung pays `2*ceil(log2 n) + 3` levels, ripple
/// `4n`, and the banked arbiter tree pays `ceil(log_bank n)` stages of a
/// `bank`-wide arbiter — degenerating to the monolithic arbiter at
/// `n <= bank`, so the Table I hardware point is untouched.
#[test]
fn ppa_gate_level_models_match_oracles() {
    let naive_ceil_log2 = |n: usize| {
        let mut levels = 0u32;
        let mut span = 1usize;
        while span < n {
            span *= 2;
            levels += 1;
        }
        levels
    };
    let mut rng = SmallRng::seed_from_u64(0xA11C_E50B);
    let mut widths = vec![1usize, 64, 1024, 65_536, 1_048_576];
    for _ in 0..200 {
        widths.push(rng.random_range(1..100_000usize));
    }
    for &n in &widths {
        assert_eq!(
            PpaKind::BrentKung.gate_levels(n),
            2 * naive_ceil_log2(n) + 3,
            "n={n}"
        );
        assert_eq!(PpaKind::Ripple.gate_levels(n), 4 * n as u32, "n={n}");
        for bank in [2usize, 8, 64] {
            let banked = PpaKind::BrentKung.banked_gate_levels(n, bank);
            if n <= bank {
                assert_eq!(
                    banked,
                    PpaKind::BrentKung.gate_levels(n),
                    "n={n} bank={bank}"
                );
            } else {
                let mut stages = 0u32;
                let mut span = 1usize;
                while span < n {
                    span = span.saturating_mul(bank);
                    stages += 1;
                }
                assert_eq!(
                    banked,
                    stages * PpaKind::BrentKung.gate_levels(bank),
                    "n={n} bank={bank}"
                );
            }
        }
    }
}

/// A hashed-bank sharded monitoring set is observationally identical to
/// the monolithic table under random insert/remove/churn/snoop/arm
/// sequences: bank homing changes where an entry lives, never what the
/// protocol sees. Churn re-homes a queue's doorbell to a fresh line
/// (Algorithm 1), the sequence both sets must track in lockstep.
#[test]
fn sharded_monitoring_set_matches_monolithic_trace() {
    use hyperplane::mem::types::LineAddr;
    let mut rng = SmallRng::seed_from_u64(0xA11C_E50C);
    for case in 0..60 {
        let mut mono = MonitoringSet::new(4096);
        let mut shard = MonitoringSet::with_shape(4096, 8, 4);
        mono.reserve_qids(256);
        shard.reserve_qids(256);
        // Queue q's doorbell in its current generation: unique per
        // (qid, generation), so churn never reuses a line.
        let mut generation = vec![0u64; 256];
        let line =
            |q: u32, generation: &[u64]| LineAddr(0x5000 + q as u64 + 256 * generation[q as usize]);
        let mut present: HashSet<u32> = HashSet::new();
        for _ in 0..rng.random_range(1..400usize) {
            let q = rng.random_range(0..256u32);
            match rng.random_range(0..5u8) {
                0 => {
                    // Insert if absent; at 6 % occupancy neither table
                    // can conflict, so both must accept.
                    if !present.contains(&q) {
                        mono.insert(QueueId(q), line(q, &generation))
                            .expect("case {case}: monolithic insert at low occupancy");
                        shard
                            .insert(QueueId(q), line(q, &generation))
                            .expect("case {case}: sharded insert at low occupancy");
                        present.insert(q);
                    }
                }
                1 => {
                    let (a, b) = (mono.remove(QueueId(q)), shard.remove(QueueId(q)));
                    assert_eq!(a, b, "case {case}: remove diverged for q{q}");
                    present.remove(&q);
                }
                2 => {
                    let l = line(q, &generation);
                    let (a, b) = (mono.snoop(l), shard.snoop(l));
                    assert_eq!(a, b, "case {case}: snoop diverged for q{q}");
                }
                3 => {
                    let (a, b) = (mono.arm(QueueId(q)), shard.arm(QueueId(q)));
                    assert_eq!(a, b, "case {case}: arm diverged for q{q}");
                }
                _ => {
                    // Churn: re-home the doorbell to a fresh line.
                    if present.contains(&q) {
                        let (a, b) = (mono.remove(QueueId(q)), shard.remove(QueueId(q)));
                        assert_eq!(a, b, "case {case}: churn remove diverged for q{q}");
                        generation[q as usize] += 1;
                        mono.insert(QueueId(q), line(q, &generation))
                            .expect("churn re-insert (monolithic)");
                        shard
                            .insert(QueueId(q), line(q, &generation))
                            .expect("churn re-insert (sharded)");
                    }
                }
            }
        }
        // The op trace was identical, so the observable counters must be
        // too (the snoop-range filter only reclassifies misses, and both
        // sides count a filtered miss as a miss).
        let (ms, ss) = (mono.stats(), shard.stats());
        assert_eq!(ms.inserts, ss.inserts, "case {case}");
        assert_eq!(ms.snoop_hits, ss.snoop_hits, "case {case}");
        assert_eq!(ms.snoop_misses, ss.snoop_misses, "case {case}");
        assert_eq!(ms.spill_resizes, 0, "case {case}: monolithic spilled");
        assert_eq!(ss.spill_resizes, 0, "case {case}: sharded spilled");
    }
}

/// Deterministic supplementary check: a store by core A makes core B's
/// next load miss (explicit staleness test, no sampling noise).
#[test]
fn store_invalidates_remote_copy() {
    let mut mem = MemSystem::new(MemSystemConfig::cmp(2));
    let addr = Addr(0x4_0000);
    mem.access(CoreId(1), addr, AccessKind::Load); // B caches the line
    mem.access(CoreId(0), addr, AccessKind::Store); // A takes ownership
    let r = mem.access(CoreId(1), addr, AccessKind::Load);
    assert_ne!(r.level, HitLevel::L1, "B must not hit a stale copy");
}

/// Characters that steer a JSON parser into every branch, plus a few
/// multi-byte ones so offsets land inside UTF-8 sequences.
const JSON_ALPHABET: &[char] = &[
    '{', '}', '[', ']', '"', ':', ',', '\\', '/', ' ', '\n', '\t', '0', '1', '9', '-', '+', '.',
    'e', 'E', 't', 'r', 'u', 'f', 'a', 'l', 's', 'n', 'b', 'x', '\u{0}', '\u{1f}', 'é', '€', '𝄞',
];

fn random_text(rng: &mut SmallRng, max_len: usize) -> String {
    let len = rng.random_range(0..max_len + 1);
    (0..len)
        .map(|_| JSON_ALPHABET[rng.random_range(0..JSON_ALPHABET.len())])
        .collect()
}

/// A random JSON tree whose containers nest at most `depth` deep.
fn random_json(rng: &mut SmallRng, depth: u32) -> hp_bytes::json::JsonValue {
    use hp_bytes::json::JsonValue;
    let kinds: u8 = if depth == 0 { 4 } else { 6 };
    match rng.random_range(0..kinds) {
        0 => JsonValue::Null,
        1 => JsonValue::Bool(rng.random()),
        2 => JsonValue::Num(match rng.random_range(0..3u8) {
            0 => rng.random_range(0..1u64 << 53) as f64,
            1 => rng.random::<f64>() * 1e6 - 5e5,
            _ => Some(f64::from_bits(rng.random()))
                .filter(|x| x.is_finite())
                .unwrap_or(0.5),
        }),
        3 => JsonValue::Str(random_text(rng, 12)),
        4 => JsonValue::Arr(
            (0..rng.random_range(0..5usize))
                .map(|_| random_json(rng, depth - 1))
                .collect(),
        ),
        _ => JsonValue::Obj(
            (0..rng.random_range(0..5usize))
                .map(|_| (random_text(rng, 6), random_json(rng, depth - 1)))
                .collect(),
        ),
    }
}

fn write_json(w: &mut hp_bytes::json::JsonWriter, v: &hp_bytes::json::JsonValue) {
    use hp_bytes::json::JsonValue;
    match v {
        JsonValue::Null => w.null(),
        JsonValue::Bool(b) => w.bool(*b),
        JsonValue::Num(x) => w.f64(*x),
        JsonValue::Str(s) => w.string(s),
        JsonValue::Arr(items) => {
            w.begin_array();
            for item in items {
                write_json(w, item);
            }
            w.end_array();
        }
        JsonValue::Obj(members) => {
            w.begin_object();
            for (k, item) in members {
                w.key(k);
                write_json(w, item);
            }
            w.end_object();
        }
    }
}

fn to_json(v: &hp_bytes::json::JsonValue) -> String {
    let mut w = hp_bytes::json::JsonWriter::new();
    write_json(&mut w, v);
    w.finish()
}

/// The JSON parser reads artifacts from disk (`attrib-diff`), so any
/// text — random or a corrupted real document — must come back as `Ok`
/// or `Err`, never a panic.
#[test]
fn json_parse_never_panics() {
    let mut rng = SmallRng::seed_from_u64(0x0015_0A5E);
    for _ in 0..20_000 {
        let _ = hp_bytes::json::parse(&random_text(&mut rng, 48));
    }
    for _ in 0..5_000 {
        let mut doc: Vec<char> = to_json(&random_json(&mut rng, 4)).chars().collect();
        for _ in 0..rng.random_range(1..4u8) {
            let at = rng.random_range(0..doc.len() + 1);
            match rng.random_range(0..3u8) {
                0 if at < doc.len() => {
                    doc.remove(at);
                }
                1 => doc.insert(at, JSON_ALPHABET[rng.random_range(0..JSON_ALPHABET.len())]),
                _ => doc.truncate(at),
            }
        }
        let _ = hp_bytes::json::parse(&doc.into_iter().collect::<String>());
    }
}

/// Exactly 128 nested containers parse; 129 are refused, for arrays,
/// objects, and a mix.
#[test]
fn json_depth_limit_is_exact() {
    let arrays = |n: usize| "[".repeat(n) + "1" + &"]".repeat(n);
    let objects = |n: usize| "{\"k\":".repeat(n) + "1" + &"}".repeat(n);
    let mixed = |n: usize| {
        let open: String = (0..n)
            .map(|i| if i % 2 == 0 { "[" } else { "{\"k\":" })
            .collect();
        let close: String = (0..n)
            .rev()
            .map(|i| if i % 2 == 0 { "]" } else { "}" })
            .collect();
        open + "null" + &close
    };
    for nest in [arrays, objects, mixed] {
        assert!(hp_bytes::json::parse(&nest(128)).is_ok());
        let err = hp_bytes::json::parse(&nest(129)).unwrap_err();
        assert_eq!(err.msg, "nesting too deep");
    }
}

/// Any tree the writer can emit parses back to the same tree.
#[test]
fn json_writer_trees_round_trip() {
    let mut rng = SmallRng::seed_from_u64(0x2A0B_D7E1);
    for _ in 0..3_000 {
        let tree = random_json(&mut rng, 5);
        let text = to_json(&tree);
        assert_eq!(hp_bytes::json::parse(&text), Ok(tree), "{text}");
    }
}

/// `FaultPlan::parse` takes spec strings from the command line: it never
/// panics, every plan it accepts validates, and accepted plans survive a
/// `Display` round trip.
#[test]
fn fault_plan_parse_is_total_and_sound() {
    use hyperplane::sim::faults::FaultPlan;
    const KEYS: &[&str] = &[
        "drop",
        "delay",
        "delay_cycles",
        "evict",
        "spurious",
        "straggler",
        "stall_cycles",
        "cap",
        "bogus",
        "",
    ];
    const VALUES: &[&str] = &[
        "0",
        "1",
        "0.5",
        "1e-3",
        "-0",
        "-0.1",
        "1.5",
        "NaN",
        "inf",
        "abc",
        "",
        "4000",
        "18446744073709551616",
        "=",
    ];
    let mut rng = SmallRng::seed_from_u64(0xFA01_7C1A);
    let (mut accepted, mut rejected) = (0, 0);
    for _ in 0..20_000 {
        let spec = if rng.random_range(0..8u8) == 0 {
            random_text(&mut rng, 24)
        } else {
            (0..rng.random_range(0..5usize))
                .map(|_| {
                    let key = KEYS[rng.random_range(0..KEYS.len())];
                    let value = VALUES[rng.random_range(0..VALUES.len())];
                    match rng.random_range(0..6u8) {
                        0 => key.to_string(),
                        1 => format!(" {key} = {value} "),
                        _ => format!("{key}={value}"),
                    }
                })
                .collect::<Vec<_>>()
                .join(",")
        };
        match FaultPlan::parse(&spec) {
            Ok(plan) => {
                accepted += 1;
                assert!(
                    plan.validate().is_ok(),
                    "{spec:?} parsed to an invalid plan"
                );
                assert_eq!(
                    FaultPlan::parse(&plan.to_string()).ok(),
                    Some(plan),
                    "{spec:?} does not round-trip"
                );
            }
            Err(_) => rejected += 1,
        }
    }
    assert!(
        accepted > 1_000 && rejected > 1_000,
        "{accepted} / {rejected}"
    );
}

/// Configs that `validate()` accepts but whose build cannot succeed — a
/// partition that leaves a group empty, or monitoring-set conflicts that
/// use up every spare doorbell — come back from `Engine::try_new` as
/// typed errors, not panics.
#[test]
fn unbuildable_configs_are_errors() {
    use hyperplane::sdp::config::ConfigError;
    use hyperplane::sdp::engine::Engine;
    let mut dispatch = ExperimentConfig::new(
        WorkloadKind::RequestDispatch,
        TrafficShape::ProportionallyConcentrated,
        1024,
    )
    .with_notifier(Notifier::hyperplane())
    .with_cores(4, 4);
    dispatch.target_completions = 100;
    let mut fb = ExperimentConfig::new(WorkloadKind::PacketEncap, TrafficShape::FullyBalanced, 4)
        .with_cores(4, 1);
    fb.imbalance = 0.99;
    let mut nc = ExperimentConfig::new(
        WorkloadKind::PacketEncap,
        TrafficShape::NonproportionallyConcentrated,
        8,
    )
    .with_cores(4, 1);
    nc.imbalance = 0.9;
    for (label, cfg, want) in [
        (
            "dispatch-pc1024",
            dispatch,
            ConfigError::SpareDoorbellsExhausted { queues: 1024 },
        ),
        ("fb4-imbalanced", fb, ConfigError::EmptyGroup { group: 3 }),
        ("nc8-imbalanced", nc, ConfigError::EmptyGroup { group: 3 }),
    ] {
        assert!(cfg.validate().is_ok(), "{label}: validate() should accept");
        assert_eq!(Engine::try_new(cfg).err(), Some(want), "{label}");
    }
}

/// `Engine::try_new` is total over configurations: every random config
/// (notifier, shape, workload, queue count, cores and cluster, imbalance,
/// chaos bursts and churn, audit, monitoring banks) builds or comes back
/// as a typed `ConfigError` — it never panics.
#[test]
fn random_configs_build_or_are_typed_errors() {
    use hyperplane::sdp::engine::Engine;
    use hyperplane::sim::chaos::ChaosSchedule;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    const NOTIFIERS: [Notifier; 5] = [
        Notifier::Spinning,
        Notifier::Interrupt,
        Notifier::hyperplane(),
        Notifier::hyperplane_power_opt(),
        Notifier::HyperPlane {
            power_optimized: false,
            software_ready_set: true,
        },
    ];
    const SHAPES: [TrafficShape; 4] = [
        TrafficShape::FullyBalanced,
        TrafficShape::ProportionallyConcentrated,
        TrafficShape::NonproportionallyConcentrated,
        TrafficShape::SingleQueue,
    ];
    const IMBALANCES: [f64; 8] = [0.0, 0.25, 0.5, 0.9, 0.99, 0.999, 1.0, -0.1];
    let mut rng = SmallRng::seed_from_u64(0xC0F1_6F22);
    let (mut built, mut refused) = (0, 0);
    for case in 0..1500 {
        let queues = match rng.random_range(0..4u8) {
            0 => rng.random_range(0..17u32),
            _ => rng.random_range(0..2049u32),
        };
        // Mostly buildable core splits (a cluster dividing the DP cores),
        // plus the invalid ones `validate` must catch.
        let dp_cores = rng.random_range(0..17usize);
        let cluster = if dp_cores > 0 && rng.random_bool(0.75) {
            let divisors: Vec<usize> = (1..=dp_cores).filter(|d| dp_cores % d == 0).collect();
            divisors[rng.random_range(0..divisors.len())]
        } else {
            rng.random_range(0..dp_cores + 2)
        };
        let mut cfg = ExperimentConfig::new(
            WorkloadKind::ALL[rng.random_range(0..WorkloadKind::ALL.len())],
            SHAPES[rng.random_range(0..SHAPES.len())],
            queues,
        )
        .with_notifier(NOTIFIERS[rng.random_range(0..NOTIFIERS.len())])
        .with_cores(dp_cores, cluster);
        if rng.random_bool(0.5) {
            cfg.imbalance = IMBALANCES[rng.random_range(0..IMBALANCES.len())];
        }
        let mut chaos = ChaosSchedule::none();
        if rng.random_bool(0.3) {
            let period = rng.random_range(0..100_000u64);
            chaos = chaos.with_burst(period, rng.random_range(0..period + 2), 2.0);
        }
        if rng.random_bool(0.5) {
            chaos = chaos.with_churn(rng.random_range(0..200_000u64));
        }
        cfg.chaos = chaos;
        cfg.audit = rng.random_bool(0.5);
        if rng.random_bool(0.5) {
            cfg.hp.monitoring_banks = rng.random_range(0..9usize);
        }
        match catch_unwind(AssertUnwindSafe(|| Engine::try_new(cfg.clone()).err())) {
            Ok(None) => built += 1,
            Ok(Some(_)) => refused += 1,
            Err(_) => panic!("case {case}: Engine::try_new panicked on {cfg:?}"),
        }
    }
    assert!(
        built > 300 && refused > 300,
        "{built} built / {refused} refused"
    );
}
