//! The `serve_cluster` workload: a two-worker `scap-cluster-worker` fleet
//! behind an in-process `scap_cluster::Coordinator`, driven in a closed
//! loop by two client threads, each waiting for its reply before sending
//! the next request (one connection per exchange, as the server closes
//! every connection).
//!
//! Each pass runs on a freshly launched fleet. It has a cold phase (each
//! of `COLD_KEYS` distinct `POST /v1/profile` keys requested once: design
//! build, flow, SCAP and a cache insert) and a warm phase (`WARM_ROUNDS`
//! rotations over the same keys, each a `scap_serve::loadgen` burst,
//! answered from the response caches, which hold every key).

use crate::check::{Checks, Fingerprint};
use crate::trace::{self, Tracer};
use crate::{write_span_file, Options, Outcome};
use scap_cluster::{
    ClusterConfig, ClusterShutdown, Coordinator, Ring, WorkerInfo, DEFAULT_REPLICAS,
};
use scap_obs::json::Value;
use scap_serve::loadgen;
use std::net::SocketAddr;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

const SCALE: &str = "0.004";
const WORKERS: usize = 2;
const CLIENTS: usize = 2;
const COLD_KEYS: usize = 12;
const WARM_ROUNDS: usize = 100;
/// Fleet launches for set-up only; every pass launches one more, and
/// `setup_s` is the median of them all.
const SETUP_LAUNCHES: usize = 4;
/// Nominal length of one pass with its fleet launch on a 2-vCPU VM,
/// seconds: a run makes as many passes as fit in `--seconds`.
const PASS_S: f64 = 2.7;
/// Per-worker design and response cache capacity: larger than every key
/// a run sends, so warm requests never miss.
const CACHE_CAPACITY: usize = 256;
/// Hedging threshold, beyond the longest cold request, so no request is
/// computed twice.
const HEDGE: Duration = Duration::from_secs(120);
const READY_TIMEOUT: Duration = Duration::from_secs(30);

/// A running fleet and the thread serving its coordinator.
struct Fleet {
    addr: SocketAddr,
    workers: Vec<WorkerInfo>,
    shutdown: ClusterShutdown,
    serving: JoinHandle<std::io::Result<scap_obs::Snapshot>>,
}

impl Fleet {
    fn launch(worker: &Path) -> Result<Fleet, String> {
        let capacity = CACHE_CAPACITY.to_string();
        let worker_command = [
            worker.to_str().ok_or("worker path is not UTF-8")?,
            "--workers",
            "2",
            "--queue-depth",
            "64",
            "--cache-capacity",
            &capacity,
            "--cache-cap",
            &capacity,
        ]
        .iter()
        .map(|s| (*s).to_owned())
        .collect();
        let coordinator = Coordinator::launch(ClusterConfig {
            addr: "127.0.0.1:0".to_owned(),
            workers: WORKERS,
            worker_command,
            hedge: HEDGE,
            ..ClusterConfig::default()
        })
        .map_err(|e| format!("launching the fleet: {e}"))?;
        let fleet = Fleet {
            addr: coordinator.local_addr(),
            workers: coordinator.worker_infos(),
            shutdown: coordinator.shutdown_handle(),
            serving: std::thread::spawn(move || coordinator.run()),
        };
        println!(
            "fleet: coordinator {} workers {}",
            fleet.addr,
            fleet
                .workers
                .iter()
                .map(|w| format!("pid {}", w.pid))
                .collect::<Vec<_>>()
                .join(", ")
        );
        Ok(fleet)
    }

    /// Waits until the coordinator and every worker answer `/healthz`.
    fn wait_ready(&self) -> Result<(), String> {
        let deadline = Instant::now() + READY_TIMEOUT;
        let mut targets = vec![self.addr];
        for w in &self.workers {
            targets.push(
                w.addr
                    .ok_or_else(|| format!("worker {} has no address", w.index))?,
            );
        }
        for addr in targets {
            loop {
                match loadgen::get(addr, "/healthz") {
                    Ok(r) if r.status == 200 => break,
                    _ if Instant::now() < deadline => std::thread::sleep(Duration::from_millis(5)),
                    _ => return Err(format!("{addr} not healthy within {READY_TIMEOUT:?}")),
                }
            }
        }
        Ok(())
    }

    /// Drains the fleet through the coordinator's shutdown.
    fn stop(self) -> Result<(), String> {
        self.shutdown.signal();
        match self.serving.join() {
            Ok(Ok(_)) => Ok(()),
            Ok(Err(e)) => Err(format!("coordinator failed: {e}")),
            Err(_) => Err("coordinator thread panicked".into()),
        }
    }

    fn metrics(&self) -> Result<Value, String> {
        let r = loadgen::get(self.addr, "/metrics").map_err(|e| format!("GET /metrics: {e}"))?;
        scap_obs::json::parse(r.text()).map_err(|e| format!("/metrics is not JSON: {e}"))
    }
}

/// The request stream of one pass: the `COLD_KEYS` profile keys
/// `(SCALE, 1..=COLD_KEYS)` in an order drawn from the benchmark seed.
/// Every pass runs on
/// a fresh fleet, so the keys are cold again; keeping the set of designs
/// fixed keeps the compute per pass the same from seed to seed.
fn pass_keys(seed: u64, pass: u64) -> Vec<u64> {
    let mut keys: Vec<u64> = (1..=COLD_KEYS as u64).collect();
    let mut state = seed ^ pass.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    for i in (1..keys.len()).rev() {
        // splitmix64
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        keys.swap(i, (z % (i as u64 + 1)) as usize);
    }
    keys
}

fn body(seed: u64) -> String {
    format!("scale={SCALE}&seed={seed}&deadline_ms=120000")
}

/// One exchange: latency in ms and the response, if any arrived.
fn exchange(addr: SocketAddr, seed: u64) -> (f64, Option<loadgen::ClientResponse>) {
    let t = Instant::now();
    let r = loadgen::post(addr, "/v1/profile", &body(seed)).ok();
    (t.elapsed().as_secs_f64() * 1e3, r)
}

/// Whether a cold `/v1/profile` body is a well-formed answer for `seed`.
fn valid_cold_body(resp: &loadgen::ClientResponse, seed: u64) -> bool {
    let Ok(doc) = scap_obs::json::parse(resp.text()) else {
        return false;
    };
    let num = |k: &str| doc.get(k).and_then(Value::as_u64);
    let series = doc
        .get("series")
        .and_then(Value::as_arr)
        .map_or(0, <[Value]>::len);
    resp.status == 200
        && num("seed") == Some(seed)
        && num("patterns").is_some_and(|p| p > 0 && p as usize == series)
        && num("above").is_some_and(|a| a as usize <= series)
}

/// Latencies and cold bodies of one pass.
#[derive(Default)]
struct PassResult {
    cold_ms: Vec<f64>,
    warm_ms: Vec<f64>,
    warm_s: f64,
    bodies: Vec<Vec<u8>>,
}

/// The warm rotation: `rounds` `loadgen` bursts of `CLIENTS` closed-loop
/// threads, each making one rotation over `seeds` against `addr` per
/// burst. One burst per rotation keeps the answers held for checking to
/// one rotation's worth, so the runner's own memory stays out of
/// `peak_rss_mb`. Returns the latencies and how many exchanges did not
/// answer 200 with the cold body of their key.
fn warm_burst(addr: SocketAddr, seeds: &[u64], bodies: &[&[u8]], rounds: usize) -> (Vec<f64>, u64) {
    let targets: Vec<(String, String)> = seeds
        .iter()
        .map(|&s| ("/v1/profile".to_owned(), body(s)))
        .collect();
    let per_thread = seeds.len();
    let attempted = CLIENTS * per_thread;
    let mut latencies_ms = Vec::with_capacity(rounds * attempted);
    let mut bad = 0;
    for _ in 0..rounds {
        let report = loadgen::burst_targets(addr, "POST", &targets, CLIENTS, per_thread);
        let matching = if report.ok_bodies.len() == attempted {
            // Every exchange answered 200, so `ok_bodies` holds each
            // thread's replies in order, and thread `t`'s exchange `j` went
            // to target `(t + j) % len`.
            report
                .ok_bodies
                .iter()
                .enumerate()
                .filter(|(k, b)| {
                    let (t, j) = (k / per_thread, k % per_thread);
                    b.as_slice() == bodies[(t + j) % seeds.len()]
                })
                .count()
        } else {
            report
                .ok_bodies
                .iter()
                .filter(|b| bodies.contains(&b.as_slice()))
                .count()
        };
        bad += (attempted - matching) as u64;
        latencies_ms.extend(report.latencies_ms);
    }
    (latencies_ms, bad)
}

fn pass(fleet: &Fleet, seeds: &[u64], tracer: &Tracer, checks: &mut Checks) -> PassResult {
    let t_cold = Instant::now();
    let cold: Vec<(usize, f64, Option<loadgen::ClientResponse>)> =
        tracer.span("cluster.cold_phase", "cluster", || {
            // Each client takes the next key of the stream when its
            // previous reply has arrived, so every key is computed once;
            // a `loadgen` burst would send overlapping rotations.
            let next = AtomicUsize::new(0);
            let next = &next;
            std::thread::scope(|s| {
                let handles: Vec<_> = (0..CLIENTS)
                    .map(|_| {
                        s.spawn(move || {
                            std::iter::from_fn(|| {
                                let i = next.fetch_add(1, Ordering::Relaxed);
                                (i < seeds.len()).then(|| {
                                    let (ms, r) = exchange(fleet.addr, seeds[i]);
                                    (i, ms, r)
                                })
                            })
                            .collect::<Vec<_>>()
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .flat_map(|h| h.join().expect("client thread"))
                    .collect()
            })
        });
    let mut result = PassResult {
        bodies: vec![Vec::new(); seeds.len()],
        ..PassResult::default()
    };
    let cold_s = t_cold.elapsed().as_secs_f64();
    let mut bad_cold = 0u64;
    for (i, ms, r) in cold {
        result.cold_ms.push(ms);
        match r {
            Some(r) if valid_cold_body(&r, seeds[i]) => result.bodies[i] = r.body,
            _ => bad_cold += 1,
        }
    }
    checks.tally(
        seeds.len() as u64,
        bad_cold,
        "cold requests answered 200 with a valid profile",
    );

    let t = Instant::now();
    let bodies: Vec<&[u8]> = result.bodies.iter().map(Vec::as_slice).collect();
    let (warm_ms, bad_warm) = tracer.span("cluster.warm_phase", "cluster", || {
        warm_burst(fleet.addr, seeds, &bodies, WARM_ROUNDS)
    });
    result.warm_s = t.elapsed().as_secs_f64();
    let attempted = (CLIENTS * WARM_ROUNDS * seeds.len()) as u64;
    checks.tally(
        attempted,
        bad_warm,
        "warm requests answered 200, byte-identical to the cold body",
    );
    result.warm_ms = warm_ms;
    println!(
        "pass: cold phase {cold_s:.3} s (p50 {:.1} ms), warm phase {:.3} s (p50 {:.3} ms)",
        trace::percentile(&result.cold_ms, 50.0).unwrap_or(f64::NAN),
        result.warm_s,
        trace::percentile(&result.warm_ms, 50.0).unwrap_or(f64::NAN)
    );
    result
}

fn counter_delta(before: &Value, after: &Value, name: &str) -> u64 {
    let get = |v: &Value| {
        v.get("counters")
            .and_then(|c| c.get(name))
            .and_then(Value::as_u64)
            .unwrap_or(0)
    };
    get(after).saturating_sub(get(before))
}

fn span_delta(before: &Value, after: &Value, name: &str) -> (u64, f64) {
    let get = |v: &Value, field: &str| {
        v.get("spans")
            .and_then(|s| s.get(name))
            .and_then(|s| s.get(field))
            .and_then(Value::as_u64)
            .unwrap_or(0)
    };
    let count = get(after, "count").saturating_sub(get(before, "count"));
    let ns = get(after, "total_ns").saturating_sub(get(before, "total_ns"));
    (count, ns as f64 / 1e6)
}

/// Launches a fleet, waits until it is ready and records the time taken.
fn launch_ready(worker: &Path, out: &mut Outcome, setup_s: &mut Vec<f64>) -> Result<Fleet, String> {
    let t = Instant::now();
    let fleet = Fleet::launch(worker)?;
    out.worker_pids.extend(fleet.workers.iter().map(|w| w.pid));
    if let Err(e) = fleet.wait_ready() {
        let _ = fleet.stop();
        return Err(e);
    }
    setup_s.push(t.elapsed().as_secs_f64());
    // The coordinator enables collection at launch; the end-to-end
    // figures are measured with it off.
    scap_obs::set_enabled(false);
    Ok(fleet)
}

fn pass_fingerprint(seeds: &[u64], bodies: &[Vec<u8>]) -> String {
    let mut by_key: Vec<(u64, &Vec<u8>)> = seeds.iter().copied().zip(bodies).collect();
    by_key.sort();
    let mut fp = Fingerprint::default();
    for (seed, body) in by_key {
        fp.u64(seed).bytes(body);
    }
    fp.hex()
}

pub fn serve_cluster(opts: &Options) -> Result<Outcome, String> {
    let worker = opts
        .worker
        .clone()
        .ok_or("serve_cluster needs --worker PATH (the scap-cluster-worker binary)")?;
    let mut out = Outcome::default();
    let mut setup_s = Vec::new();
    for _ in 0..SETUP_LAUNCHES {
        launch_ready(&worker, &mut out, &mut setup_s)?.stop()?;
    }
    // The traced run makes one untraced pass, the reference for the
    // tracing overhead, before its traced one.
    let passes = if opts.trace {
        1
    } else {
        crate::passes(opts.seconds, PASS_S)
    };
    let untraced = Tracer::new(false);
    let mut walls = Vec::with_capacity(passes);
    for p in 0..passes {
        let seeds = pass_keys(opts.seed, p as u64);
        let fleet = launch_ready(&worker, &mut out, &mut setup_s)?;
        let t = Instant::now();
        let r = pass(&fleet, &seeds, &untraced, &mut out.checks);
        walls.push(t.elapsed().as_secs_f64());
        fleet.stop()?;
        let fp = pass_fingerprint(&seeds, &r.bodies);
        if p == 0 {
            out.fingerprint = fp;
        } else {
            out.checks.equal(
                "repeat pass output fingerprint",
                fp,
                out.fingerprint.clone(),
            );
        }
        out.checks.quiet = true;
    }
    println!("output fingerprint: {}", out.fingerprint);
    out.set("setup_s", trace::median(&setup_s), setup_s.len() as u64);
    out.set("wall_s", trace::median(&walls), walls.len() as u64);
    if opts.trace {
        // The traced pass repeats the first pass's stream on a fresh fleet,
        // so the traced and untraced walls measure the same work.
        let fleet = launch_ready(&worker, &mut out, &mut setup_s)?;
        let result = traced(opts, &fleet, &pass_keys(opts.seed, 0), walls[0], &mut out);
        fleet.stop()?;
        result?;
    }
    Ok(out)
}

fn traced(
    opts: &Options,
    fleet: &Fleet,
    seeds: &[u64],
    untraced_wall_s: f64,
    out: &mut Outcome,
) -> Result<(), String> {
    scap_obs::set_enabled(true);
    let tracer = Tracer::new(true);
    tracer.next_run();
    let before = fleet.metrics()?;
    let t = Instant::now();
    let r = tracer.span(&opts.workload, "unattributed", || {
        pass(fleet, seeds, &tracer, &mut out.checks)
    });
    let wall_ms = t.elapsed().as_secs_f64() * 1e3;
    let after = fleet.metrics()?;

    out.checks.equal(
        "traced pass output fingerprint",
        pass_fingerprint(seeds, &r.bodies),
        out.fingerprint.clone(),
    );

    // Probe: the same warm rotation sent straight to each key's owner, one
    // burst per worker over the keys it owns.
    let ring = Ring::new(fleet.workers.len(), DEFAULT_REPLICAS);
    let scale: f64 = SCALE.parse().expect("literal scale");
    let owners: Vec<usize> = seeds
        .iter()
        .map(|&s| ring.owner(Ring::shard_key(scale, s)))
        .collect();
    tracer.next_run();
    let mut direct_ms = Vec::new();
    let mut bad_direct = 0;
    tracer.span("serve.warm_direct", "serve", || -> Result<(), String> {
        for (w, info) in fleet.workers.iter().enumerate() {
            let owned: Vec<usize> = (0..seeds.len()).filter(|&i| owners[i] == w).collect();
            if owned.is_empty() {
                continue;
            }
            let addr = info.addr.ok_or("worker without address")?;
            let keys: Vec<u64> = owned.iter().map(|&i| seeds[i]).collect();
            let bodies: Vec<&[u8]> = owned.iter().map(|&i| r.bodies[i].as_slice()).collect();
            let (latencies_ms, bad) = warm_burst(addr, &keys, &bodies, WARM_ROUNDS);
            direct_ms.extend(latencies_ms);
            bad_direct += bad;
        }
        Ok(())
    })?;
    out.checks.tally(
        (CLIENTS * WARM_ROUNDS * seeds.len()) as u64,
        bad_direct,
        "direct warm requests byte-identical to the coordinator's cold body",
    );

    let records = tracer.records();
    let layers = trace::layer_self_ms(&records, 1, &opts.workload);
    out.set_layer_self_times(&layers);
    out.set("core.wall_ms", wall_ms, 1);
    out.set(
        "obs.trace_overhead_pct",
        (wall_ms / (untraced_wall_s * 1e3) - 1.0) * 100.0,
        1,
    );
    let n = |v: &[f64]| v.len() as u64;
    let p50 = |v: &[f64]| trace::percentile(v, 50.0).unwrap_or(0.0);
    out.set("cluster.cold_p50_ms", p50(&r.cold_ms), n(&r.cold_ms));
    out.set("cluster.warm_p50_ms", p50(&r.warm_ms), n(&r.warm_ms));
    if let Some((p, v)) = trace::tail(&r.warm_ms) {
        out.set("cluster.warm_tail_ms", v, n(&r.warm_ms));
        println!(
            "cluster.warm_tail_ms is p{p} of {} warm requests",
            r.warm_ms.len()
        );
    }
    out.set(
        "cluster.warm_rps",
        r.warm_ms.len() as f64 / r.warm_s,
        n(&r.warm_ms),
    );
    out.set("serve.warm_direct_p50_ms", p50(&direct_ms), n(&direct_ms));
    if let Some(hop) = trace::hop_p50_ms(&r.warm_ms, &direct_ms) {
        out.set("cluster.hop_p50_ms", hop, n(&r.warm_ms));
    }
    let mut per_worker = vec![0u64; fleet.workers.len()];
    for &o in &owners {
        per_worker[o] += 1;
    }
    out.set(
        "cluster.keys_per_worker_max",
        per_worker.iter().copied().max().unwrap_or(0) as f64,
        seeds.len() as u64,
    );

    let delta = |name: &str| counter_delta(&before, &after, name);
    out.set(
        "cluster.failover.reroutes",
        delta("cluster.failover.reroutes") as f64,
        1,
    );
    out.checks
        .equal("failover reroutes", delta("cluster.failover.reroutes"), 0);
    out.set(
        "serve.respcache.hits",
        delta("serve.respcache.hits") as f64,
        1,
    );
    out.set(
        "serve.respcache.misses",
        delta("serve.respcache.misses") as f64,
        1,
    );
    let (builds, build_ms) = span_delta(&before, &after, "serve.design_build");
    if builds > 0 {
        out.set("serve.design_build_ms", build_ms / builds as f64, builds);
    }
    // Work the workers did for the pass, from the aggregated /metrics.
    let (primary_n, primary_ms) = span_delta(&before, &after, "atpg.podem_primary");
    let (secondary_n, secondary_ms) = span_delta(&before, &after, "atpg.podem_secondary");
    out.set("atpg.podem.calls", (primary_n + secondary_n) as f64, 1);
    out.set(
        "atpg.podem.ms",
        primary_ms + secondary_ms,
        primary_n + secondary_n,
    );
    let (drop_n, drop_ms) = span_delta(&before, &after, "atpg.drop_sim");
    out.set("sim.drop_ms", drop_ms, drop_n);
    for (metric, counter) in [
        ("sim.fault_sim_checks", "sim.fault_sim_checks"),
        ("sim.event_runs", "sim.event_runs"),
        ("power.cg_solves", "cg.solves"),
        ("power.cg_iterations", "cg.iterations"),
        ("exec.parallel_maps", "exec.parallel_maps"),
    ] {
        out.set(metric, delta(counter) as f64, 1);
    }
    let threads = after
        .get("gauges")
        .and_then(|g| g.get("exec.effective_threads"))
        .and_then(Value::as_u64)
        .unwrap_or(0);
    out.set("exec.effective_threads", threads as f64, 1);

    let raw: Vec<(&'static str, u64)> = [
        "serve.respcache.hits",
        "serve.respcache.misses",
        "serve.design_builds",
        "cluster.route.requests",
        "cluster.failover.reroutes",
        "cluster.hedge.fired",
    ]
    .into_iter()
    .map(|n| (n, delta(n)))
    .collect();
    write_span_file(opts, &records, &layers, &raw, out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pass_keys_permute_the_fixed_key_set() {
        let mut a = pass_keys(7, 0);
        assert_eq!(a, pass_keys(7, 0));
        assert_ne!(a, pass_keys(8, 0));
        assert_ne!(a, pass_keys(7, 1));
        a.sort_unstable();
        assert_eq!(a, (1..=COLD_KEYS as u64).collect::<Vec<_>>());
    }
}
