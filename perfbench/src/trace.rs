//! In-memory span recording around the benchmark's calls into each layer,
//! plus the statistics the report is built from.
//!
//! A [`Tracer`] keeps one record per timed call: name, layer, start, end,
//! parent and run id. Calls made while a `scap_obs` capture is open also
//! get one aggregate child per program span that advanced during the call
//! (`atpg.podem_primary`, `atpg.drop_sim`, ...), so a layer's self time is
//! its span minus everything measured beneath it. Nothing is recorded
//! while the tracer is disabled: the end-to-end runs call the same code
//! with tracing off.

use std::cell::RefCell;
use std::time::Instant;

/// Program spans (`scap_obs`) and the layer each one times.
const OBS_SPAN_LAYERS: &[(&str, &str)] = &[
    ("atpg.podem_primary", "atpg"),
    ("atpg.podem_secondary", "atpg"),
    ("atpg.drop_sim", "sim"),
    ("atpg.sat_solve", "sat"),
];

/// One timed region: a call (`count == 1`, `total_ns == end_ns -
/// start_ns`) or the aggregate of a program span's calls inside one
/// (`count` calls, no interval of its own: `start_ns == end_ns == 0`).
#[derive(Clone, Debug)]
pub struct SpanRecord {
    pub name: String,
    pub layer: &'static str,
    pub run: u32,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
    pub count: u64,
    pub total_ns: u64,
    /// Counter deltas over the call, when a `scap_obs` capture was open.
    pub counters: Vec<(&'static str, u64)>,
}

#[derive(Default)]
struct State {
    records: Vec<SpanRecord>,
    stack: Vec<usize>,
    run: u32,
}

/// Records spans around layer calls while enabled; a pass-through
/// otherwise.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    state: RefCell<State>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            state: RefCell::new(State::default()),
        }
    }

    /// Starts a new run id; later root spans belong to it.
    pub fn next_run(&self) {
        self.state.borrow_mut().run += 1;
    }

    /// Times `f` as a span of `layer`.
    pub fn span<T>(&self, name: &str, layer: &'static str, f: impl FnOnce() -> T) -> T {
        self.timed(name, layer, false, f)
    }

    /// Times `f` as a span of `layer` and attributes the program spans and
    /// counters that advanced during it. Must not be nested inside another
    /// capturing span, or the program spans would be counted twice.
    pub fn layer_call<T>(&self, name: &str, layer: &'static str, f: impl FnOnce() -> T) -> T {
        self.timed(name, layer, true, f)
    }

    fn timed<T>(&self, name: &str, layer: &'static str, capture: bool, f: impl FnOnce() -> T) -> T {
        if !self.enabled {
            return f();
        }
        let before = capture.then(scap_obs::snapshot);
        let index = {
            let mut st = self.state.borrow_mut();
            let parent = st.stack.last().copied();
            let run = st.run;
            let index = st.records.len();
            st.records.push(SpanRecord {
                name: name.to_owned(),
                layer,
                run,
                parent,
                start_ns: self.now_ns(),
                end_ns: 0,
                count: 1,
                total_ns: 0,
                counters: Vec::new(),
            });
            st.stack.push(index);
            index
        };
        let out = f();
        let end_ns = self.now_ns();
        let after = before.as_ref().map(|_| scap_obs::snapshot());
        let mut st = self.state.borrow_mut();
        st.stack.pop();
        let run = st.run;
        let rec = &mut st.records[index];
        rec.end_ns = end_ns;
        rec.total_ns = end_ns - rec.start_ns;
        if let (Some(before), Some(after)) = (before, after) {
            rec.counters = after.counter_deltas(&before);
            for &(obs_name, now) in &after.spans {
                let Some(&(_, obs_layer)) = OBS_SPAN_LAYERS.iter().find(|(n, _)| *n == obs_name)
                else {
                    continue;
                };
                let prior = before
                    .spans
                    .iter()
                    .find(|(n, _)| *n == obs_name)
                    .map(|&(_, s)| s)
                    .unwrap_or(scap_obs::SpanSnapshot {
                        count: 0,
                        total_ns: 0,
                    });
                let count = now.count.saturating_sub(prior.count);
                if count == 0 {
                    continue;
                }
                st.records.push(SpanRecord {
                    name: obs_name.to_owned(),
                    layer: obs_layer,
                    run,
                    parent: Some(index),
                    start_ns: 0,
                    end_ns: 0,
                    count,
                    total_ns: now.total_ns.saturating_sub(prior.total_ns),
                    counters: Vec::new(),
                });
            }
        }
        out
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Every record so far.
    pub fn records(&self) -> Vec<SpanRecord> {
        self.state.borrow().records.clone()
    }
}

/// Self time of each record: its duration minus its direct children's.
/// A caller's spans nest strictly (one thread, calls return before the
/// next starts), so the children of one record never overlap.
pub fn self_times_ns(records: &[SpanRecord]) -> Vec<u64> {
    let mut covered = vec![0u64; records.len()];
    for r in records {
        if let Some(p) = r.parent {
            covered[p] += r.total_ns;
        }
    }
    records
        .iter()
        .zip(&covered)
        .map(|(r, &c)| r.total_ns.saturating_sub(c))
        .collect()
}

/// Sum of self time per layer over the records of `run` whose root is
/// named `root`, in first-seen order.
pub fn layer_self_ms(records: &[SpanRecord], run: u32, root: &str) -> Vec<(&'static str, f64)> {
    let selfs = self_times_ns(records);
    let mut out: Vec<(&'static str, f64)> = Vec::new();
    for (i, r) in records.iter().enumerate() {
        if r.run != run || root_name(records, i) != root {
            continue;
        }
        let ms = selfs[i] as f64 / 1e6;
        match out.iter_mut().find(|(l, _)| *l == r.layer) {
            Some(slot) => slot.1 += ms,
            None => out.push((r.layer, ms)),
        }
    }
    out
}

fn root_name(records: &[SpanRecord], mut i: usize) -> &str {
    while let Some(p) = records[i].parent {
        i = p;
    }
    &records[i].name
}

/// Total duration (ms) and call count of every record named `name`.
pub fn total_ms(records: &[SpanRecord], name: &str) -> (f64, u64) {
    records
        .iter()
        .filter(|r| r.name == name)
        .fold((0.0, 0), |(ms, n), r| {
            (ms + r.total_ns as f64 / 1e6, n + r.count)
        })
}

/// Nearest-rank percentile `p` (0–100] of `samples`, as `scap-loadgen`
/// reports it; `None` when empty.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    scap_serve::loadgen::BurstReport {
        latencies_ms: samples.to_vec(),
        ..Default::default()
    }
    .percentile_ms(p)
}

/// 1-based nearest rank of percentile `p` among `n` samples.
fn nearest_rank(n: usize, p: f64) -> usize {
    let rank = (p.clamp(0.0, 100.0) / 100.0 * n as f64).ceil() as usize;
    rank.clamp(1, n)
}

/// Percentiles a tail is reported at, highest first.
const TAIL_LADDER: &[f64] = &[99.9, 99.0, 98.0, 95.0, 90.0, 75.0, 50.0];

/// The highest percentile of [`TAIL_LADDER`] with at least ten samples
/// beyond it, and its value. `None` with fewer than eleven samples.
pub fn tail(samples: &[f64]) -> Option<(f64, f64)> {
    let n = samples.len();
    let p = TAIL_LADDER
        .iter()
        .copied()
        .find(|&p| n >= nearest_rank(n, p) + 10)?;
    Some((p, percentile(samples, p)?))
}

/// Latency the coordinator hop adds: the median through the coordinator
/// minus the median straight to the owning worker.
pub fn hop_p50_ms(via_coordinator: &[f64], direct: &[f64]) -> Option<f64> {
    Some(percentile(via_coordinator, 50.0)? - percentile(direct, 50.0)?)
}

/// Median of a non-empty sample: the middle value, or the mean of the
/// two middle values of an even count.
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of an empty sample");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(
        name: &str,
        layer: &'static str,
        parent: Option<usize>,
        start: u64,
        end: u64,
    ) -> SpanRecord {
        SpanRecord {
            name: name.to_owned(),
            layer,
            run: 0,
            parent,
            start_ns: start,
            end_ns: end,
            count: 1,
            total_ns: end - start,
            counters: Vec::new(),
        }
    }

    #[test]
    fn nearest_rank_percentiles() {
        let s: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&s, 50.0), Some(5.0));
        assert_eq!(percentile(&s, 90.0), Some(9.0));
        assert_eq!(percentile(&s, 91.0), Some(10.0));
        assert_eq!(percentile(&s, 100.0), Some(10.0));
        assert_eq!(percentile(&s, 0.0), Some(1.0));
        assert_eq!(percentile(&[3.0, 1.0, 2.0], 50.0), Some(2.0));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn median_of_any_count() {
        assert_eq!(median(&[4.0]), 4.0);
        assert_eq!(median(&[3.0, 1.0]), 2.0);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        // p90 is rank 90 with exactly ten beyond; p95 leaves five.
        assert_eq!(tail(&s), Some((90.0, 90.0)));
        let s: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&s), Some((99.0, 990.0)));
        let s: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(tail(&s), Some((50.0, 10.0)));
        let s: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(tail(&s), None);
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // root [0,100) > flow [10,70) > podem [20,50); stage [70,95).
        let mut records = vec![
            rec("root", "core", None, 0, 100),
            rec("flow", "core", Some(0), 10, 70),
            rec("podem", "atpg", Some(1), 20, 50),
            rec("stage", "power", Some(0), 70, 95),
        ];
        // An aggregate of program spans under the flow: 2 calls, 5 ns.
        records.push(SpanRecord {
            count: 2,
            ..rec("atpg.drop_sim", "sim", Some(1), 0, 5)
        });
        assert_eq!(self_times_ns(&records), vec![15, 25, 30, 25, 5]);
        let layers = layer_self_ms(&records, 0, "root");
        let ns = |l: &str| layers.iter().find(|(n, _)| *n == l).map(|&(_, v)| v * 1e6);
        assert_eq!(ns("core"), Some(40.0));
        assert_eq!(ns("atpg"), Some(30.0));
        assert_eq!(ns("power"), Some(25.0));
        assert_eq!(ns("sim"), Some(5.0));
        // Layer self times add up to the root's duration.
        let sum: f64 = layers.iter().map(|(_, v)| v * 1e6).sum();
        assert!((sum - 100.0).abs() < 1e-9);
        assert_eq!(total_ms(&records, "atpg.drop_sim"), (5e-6, 2));
    }

    #[test]
    fn tracer_records_nesting_and_disabled_is_inert() {
        let t = Tracer::new(true);
        let v = t.span("outer", "core", || t.span("inner", "sim", || 7));
        assert_eq!(v, 7);
        let r = t.records();
        assert_eq!(r.len(), 2);
        assert_eq!(r[1].parent, Some(0));
        assert!(r[0].start_ns <= r[1].start_ns && r[1].end_ns <= r[0].end_ns);
        let off = Tracer::new(false);
        assert_eq!(off.span("x", "core", || 1), 1);
        assert!(off.records().is_empty());
    }

    #[test]
    fn hop_is_the_difference_of_medians() {
        let via = [0.9, 0.7, 0.8, 5.0, 0.75];
        let direct = [0.3, 0.25, 0.2, 0.28, 2.0];
        let hop = hop_p50_ms(&via, &direct).unwrap();
        assert!((hop - (0.8 - 0.28)).abs() < 1e-12);
        assert_eq!(hop_p50_ms(&[], &direct), None);
    }
}
