//! The serve workloads: a warm `MatchService` loaded from persisted
//! artefacts, driven open loop over a ladder of offered rates and then
//! closed loop with full batches; `serve-churn` adds reference writes.

use std::collections::HashMap;
use std::time::Instant;

use transer_blocking::{LshIndex, MinHashLsh};
use transer_common::{Label, Record};
use transer_core::{TransEr, TransErConfig};
use transer_datagen::{ScaleConfig, ScaleGen};
use transer_ml::{ClassifierKind, PersistedModel};
use transer_parallel::Pool;
use transer_serve::{MatchService, DEFAULT_BATCH_SIZE};

use crate::loadgen::{poisson_schedule, run_open_loop, Op, OpenLoopStats, WallClock};
use crate::stats::{decision_hash, f1, highest_supported, median, percentile, SplitMix};
use crate::{peak_rss_mb, print_layer_table, Args, Outcome, DEFAULT_SEED, MIN_F1};

/// Times set-up runs; `setup_s` is the median.
const SETUP_REPS: usize = 3;
/// Live reference records at start.
const REF_ROWS: usize = 100_000;
/// Records per domain of the two training tasks.
const TRAIN_ROWS: usize = 20_000;
/// Queries per rate step: 5 full batches, and enough for a p99 with more
/// than ten samples beyond it.
const QUERIES: usize = 5 * DEFAULT_BATCH_SIZE;
/// Offered query rates of the open-loop ladder (queries per second).
const RATES: [f64; 5] = [250.0, 1_000.0, 4_000.0, 16_000.0, 64_000.0];
/// Passes over the lowest rate: its latencies are the headline figures,
/// so they get twice the samples.
const LOWEST_RATE_PASSES: usize = 2;
/// Per-query p99 limit of `max_qps_slo`, in seconds.
const SLO_S: f64 = 0.050;
/// Insert/remove pairs per eight queries in `serve-churn`.
const CHURN_PAIRS_PER_8: usize = 1;
/// Fresh records available for inserts (cycled if a run needs more).
const INSERT_POOL: usize = 4096;
/// Entity-id offset of inserted records, so they never match a query.
const INSERT_ENTITY_OFFSET: u64 = 1 << 40;
/// Queries of the end-of-run oracle sample.
const ORACLE_SAMPLE: usize = 2 * DEFAULT_BATCH_SIZE;

/// Decision hash of `serve-read` at [`DEFAULT_SEED`].
const READ_DECISION_HASH: u64 = 0x76b2_30d9_52f3_67b3;
/// Hash of `serve-churn`'s oracle-sample decisions after the open-loop
/// ladder at [`DEFAULT_SEED`].
const CHURN_DECISION_HASH: u64 = 0x8c33_7b8b_703f_1928;

/// Percentiles tried, highest first, for write latency.
const WRITE_PERCENTILES: [f64; 3] = [99.0, 95.0, 90.0];

type Decision = (u64, u64, bool);

/// Everything set-up produces.
struct Inputs {
    service: MatchService,
    model: PersistedModel,
    /// Mirror of the service's record slots (dead ones included).
    slots: Vec<Record>,
    queries: Vec<Record>,
    inserts: Vec<Record>,
    datagen_s: f64,
}

fn block_and_compare(
    rows: usize,
    seed: u64,
) -> Result<(transer_common::FeatureMatrix, Vec<Label>), String> {
    let gen = ScaleGen::new(ScaleConfig::new(rows).with_seed(seed)).map_err(|e| e.to_string())?;
    let (left, right) = gen.pair();
    let lsh = MinHashLsh::new(ScaleGen::lsh_config()).map_err(|e| e.to_string())?;
    let pairs = lsh.candidate_pairs_masked(&left, &right, Some(ScaleGen::blocking_attrs()));
    ScaleGen::comparison().compare_pairs(&left, &right, &pairs).map_err(|e| e.to_string())
}

/// Generate, train, index, persist, reload.
fn set_up(args: &Args) -> Result<Inputs, String> {
    let err = |e: transer_common::Error| e.to_string();
    let t = Instant::now();
    let serving = ScaleGen::new(ScaleConfig::new(REF_ROWS).with_seed(args.seed.wrapping_add(1000)))
        .map_err(err)?;
    let reference = serving.domain(0);
    let mut rng = SplitMix::new(args.seed, 1);
    let queries: Vec<Record> =
        (0..QUERIES).map(|_| serving.record(1, rng.below(REF_ROWS))).collect();
    let fresh = ScaleGen::new(ScaleConfig::new(REF_ROWS).with_seed(args.seed.wrapping_add(2000)))
        .map_err(err)?;
    let inserts: Vec<Record> = (0..INSERT_POOL)
        .map(|_| {
            let mut r = fresh.record(0, rng.below(REF_ROWS));
            r.entity += INSERT_ENTITY_OFFSET;
            r
        })
        .collect();
    let datagen_s = t.elapsed().as_secs_f64();

    let (xs, ys) = block_and_compare(TRAIN_ROWS, args.seed)?;
    let (xt, _) = block_and_compare(TRAIN_ROWS, args.seed.wrapping_add(500))?;
    let pipeline = TransEr::new(TransErConfig::default(), ClassifierKind::RandomForest, args.seed)
        .map_err(err)?;
    let (_, model) = pipeline.fit_predict_with_model(&xs, &ys, &xt).map_err(err)?;
    let model = model.ok_or("random forest has no persisted form")?;

    let index = LshIndex::from_records(
        ScaleGen::lsh_config(),
        Some(ScaleGen::blocking_attrs()),
        &reference,
    )
    .map_err(err)?;
    std::fs::create_dir_all(&args.work_dir).map_err(|e| format!("{}: {e}", args.work_dir))?;
    let stem = format!("{}/{}-{}", args.work_dir, args.workload, std::process::id());
    let (model_path, index_path) = (format!("{stem}-model.json"), format!("{stem}-index.json"));
    model.save(&model_path).map_err(err)?;
    index.save(&index_path).map_err(err)?;
    let service =
        MatchService::load(ScaleGen::comparison(), &model_path, &index_path, reference.clone())
            .map_err(err)?;
    let model = PersistedModel::load(&model_path).map_err(err)?;
    for path in [&model_path, &index_path] {
        std::fs::remove_file(path).map_err(|e| format!("{path}: {e}"))?;
    }
    Ok(Inputs { service, model, slots: reference, queries, inserts, datagen_s })
}

/// Per-layer busy time of the decomposed (traced) serving path.
#[derive(Default)]
struct LayerTimes {
    block: f64,
    compare: f64,
    predict: f64,
    batches: usize,
    queries: usize,
    pairs: usize,
}

/// The mutable serving state a run drives.
struct Server<'a> {
    inputs: &'a mut Inputs,
    pool: Pool,
    traced: bool,
    layers: LayerTimes,
    /// Live ids, for picking remove victims.
    live: Vec<usize>,
    /// Position of each slot id in `live` (usize::MAX when dead).
    live_pos: Vec<usize>,
    rng: SplitMix,
    next_insert: usize,
    insert_s: Vec<f64>,
    remove_s: Vec<f64>,
    compactions: usize,
    write_errors: Vec<String>,
}

impl<'a> Server<'a> {
    fn new(inputs: &'a mut Inputs, seed: u64, traced: bool) -> Self {
        let n = inputs.slots.len();
        Server {
            inputs,
            pool: Pool::global(),
            traced,
            layers: LayerTimes::default(),
            live: (0..n).collect(),
            live_pos: (0..n).collect(),
            rng: SplitMix::new(seed, 2),
            next_insert: 0,
            insert_s: Vec::new(),
            remove_s: Vec::new(),
            compactions: 0,
            write_errors: Vec::new(),
        }
    }

    fn write(&mut self, op: Op) -> bool {
        let t = Instant::now();
        match op {
            Op::Insert => {
                let record = self.inputs.inserts[self.next_insert % INSERT_POOL].clone();
                self.next_insert += 1;
                match self.inputs.service.insert(record.clone()) {
                    Ok(id) => {
                        self.insert_s.push(t.elapsed().as_secs_f64());
                        if id != self.inputs.slots.len() {
                            self.write_errors.push(format!("insert got id {id}"));
                            return false;
                        }
                        self.inputs.slots.push(record);
                        self.live_pos.push(self.live.len());
                        self.live.push(id);
                        true
                    }
                    Err(e) => {
                        self.write_errors.push(format!("insert: {e}"));
                        false
                    }
                }
            }
            Op::Remove => {
                let victim = self.live[self.rng.below(self.live.len())];
                let before = self.inputs.service.index().tombstones();
                let result = self.inputs.service.remove(victim);
                self.remove_s.push(t.elapsed().as_secs_f64());
                if self.inputs.service.index().tombstones() < before {
                    self.compactions += 1;
                }
                match result {
                    Ok(()) => {
                        let pos = self.live_pos[victim];
                        self.live.swap_remove(pos);
                        if let Some(&moved) = self.live.get(pos) {
                            self.live_pos[moved] = pos;
                        }
                        self.live_pos[victim] = usize::MAX;
                        true
                    }
                    Err(e) => {
                        self.write_errors.push(format!("remove {victim}: {e}"));
                        false
                    }
                }
            }
            Op::Query(_) => false,
        }
    }

    /// Serve one batch of query indices; decisions go to `sink`.
    fn serve(&mut self, batch: &[usize], sink: &mut Vec<Decision>) -> Result<(), String> {
        let records: Vec<Record> = batch.iter().map(|&q| self.inputs.queries[q].clone()).collect();
        let decisions = if self.traced {
            let inputs = &*self.inputs;
            block_compare_predict(inputs, &records, &self.pool, &mut self.layers)?
        } else {
            let resp = self.inputs.service.query_batch(&records).map_err(|e| e.to_string())?;
            resp.decisions.iter().map(|d| (d.query, d.reference, d.label.is_match())).collect()
        };
        sink.extend(decisions.into_iter().map(|(q, r, m)| (batch[q] as u64, r as u64, m)));
        Ok(())
    }

    /// Decisions of the live service for `queries` (indices), in full
    /// batches, untimed.
    fn decide(&mut self, queries: &[usize]) -> Result<Vec<Decision>, String> {
        let mut out = Vec::new();
        for batch in queries.chunks(DEFAULT_BATCH_SIZE) {
            self.serve(batch, &mut out)?;
        }
        Ok(out)
    }
}

/// `MatchService::query_batch`'s block → compare → predict as one public
/// call per layer, each timed into `layers`: the traced serving path, and,
/// over every query at once, the offline oracle. Returns (query index in
/// `batch`, reference id, is_match).
fn block_compare_predict(
    inputs: &Inputs,
    batch: &[Record],
    pool: &Pool,
    layers: &mut LayerTimes,
) -> Result<Vec<(usize, usize, bool)>, String> {
    let t = Instant::now();
    let candidates = inputs.service.index().query_batch(batch, pool);
    layers.block += t.elapsed().as_secs_f64();
    let pairs: Vec<(usize, usize)> = candidates
        .iter()
        .enumerate()
        .flat_map(|(q, ids)| ids.iter().map(move |&id| (id, q)))
        .collect();
    layers.batches += 1;
    layers.queries += batch.len();
    layers.pairs += pairs.len();
    if pairs.is_empty() {
        return Ok(Vec::new());
    }
    let t = Instant::now();
    let (x, _) = ScaleGen::comparison()
        .compare_pairs_with_pool(&inputs.slots, batch, &pairs, pool)
        .map_err(|e| e.to_string())?;
    layers.compare += t.elapsed().as_secs_f64();
    let t = Instant::now();
    let probs = inputs.service.model().classifier().predict_proba(&x);
    layers.predict += t.elapsed().as_secs_f64();
    Ok(pairs
        .iter()
        .zip(probs)
        .map(|(&(r, q), p)| (q, r, Label::from_score(p).is_match()))
        .collect())
}

/// Decisions of a fresh `MatchService::new` over the surviving records for
/// `sample`, with its ids mapped back to the live service's ids.
fn fresh_oracle(server: &Server, sample: &[usize]) -> Result<Vec<Decision>, String> {
    let mut ids = server.live.clone();
    ids.sort_unstable();
    let survivors: Vec<Record> = ids.iter().map(|&id| server.inputs.slots[id].clone()).collect();
    let fresh = MatchService::new(
        ScaleGen::comparison(),
        server.inputs.model.clone(),
        ScaleGen::lsh_config(),
        Some(ScaleGen::blocking_attrs()),
        survivors,
    )
    .map_err(|e| e.to_string())?;
    let mut out = Vec::new();
    for batch in sample.chunks(DEFAULT_BATCH_SIZE) {
        let records: Vec<Record> =
            batch.iter().map(|&q| server.inputs.queries[q].clone()).collect();
        let resp = fresh.query_batch(&records).map_err(|e| e.to_string())?;
        out.extend(
            resp.decisions
                .iter()
                .map(|d| (batch[d.query] as u64, ids[d.reference] as u64, d.label.is_match())),
        );
    }
    Ok(out)
}

/// F1 of `decisions` for the queries in `sample` against entity ids; true
/// matches the index never offered count as misses.
fn serve_f1(server: &Server, sample: &[usize], decisions: &[Decision]) -> f64 {
    let mut live_entities: HashMap<u64, usize> = HashMap::new();
    for &id in &server.live {
        *live_entities.entry(server.inputs.slots[id].entity).or_default() += 1;
    }
    let actual: usize = sample
        .iter()
        .map(|&q| live_entities.get(&server.inputs.queries[q].entity).copied().unwrap_or(0))
        .sum();
    let is_true = |&(q, r, _): &Decision| {
        server.inputs.queries[q as usize].entity == server.inputs.slots[r as usize].entity
    };
    let predicted = decisions.iter().filter(|d| d.2).count();
    let tp = decisions.iter().filter(|d| d.2 && is_true(d)).count();
    f1(tp, predicted, actual)
}

/// One rate step's figures.
struct Step {
    rate: f64,
    stats: OpenLoopStats,
    hash: u64,
}

/// `serve-read` (`churn == false`) and `serve-churn`.
pub fn serve(args: &Args, churn: bool) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut setup = Vec::new();
    let mut datagen = Vec::new();
    let mut inputs = None;
    for _ in 0..SETUP_REPS {
        drop(inputs.take());
        let t = Instant::now();
        let i = set_up(args)?;
        setup.push(t.elapsed().as_secs_f64());
        datagen.push(i.datagen_s);
        inputs = Some(i);
    }
    let mut inputs = inputs.ok_or("no set-up")?;
    let setup_s = median(&setup);
    let pool = Pool::global();
    let all: Vec<usize> = (0..QUERIES).collect();
    let write_pairs = if churn { CHURN_PAIRS_PER_8 } else { 0 };

    // The seed-independent oracle for reads, computed before any write.
    let mut oracle: Vec<Decision> =
        block_compare_predict(&inputs, &inputs.queries, &pool, &mut LayerTimes::default())?
            .into_iter()
            .map(|(q, r, m)| (q as u64, r as u64, m))
            .collect();
    let oracle_hash = decision_hash(&mut oracle);

    // Trace overhead: one pass over every query untraced, then the same
    // pass traced, back to back on the same state.
    let overhead = if args.trace {
        let mut server = Server::new(&mut inputs, args.seed, false);
        let t = Instant::now();
        server.decide(&all)?;
        let untraced_s = t.elapsed().as_secs_f64();
        transer_trace::set_enabled(true);
        server.traced = true;
        let t = Instant::now();
        server.decide(&all)?;
        Some(t.elapsed().as_secs_f64() / untraced_s - 1.0)
    } else {
        None
    };

    let _ = transer_trace::take_global_report();
    transer_trace::set_enabled(args.trace);
    let measure = Instant::now();
    let mut server = Server::new(&mut inputs, args.seed, args.trace);
    let mut steps = Vec::new();
    let mut failures = 0usize;
    let mut attempted = 0usize;
    let mut schedule_rng = SplitMix::new(args.seed, 3);
    let ladder =
        std::iter::repeat_n(RATES[0], LOWEST_RATE_PASSES).chain(RATES[1..].iter().copied());
    for rate in ladder {
        let schedule = poisson_schedule(&mut schedule_rng, QUERIES, rate, write_pairs);
        attempted += schedule.len();
        let mut decisions = Vec::new();
        let mut clock = WallClock::start();
        let mut batch_errors = Vec::new();
        let (stats, failed) = {
            let server = std::cell::RefCell::new(&mut server);
            run_open_loop(
                &schedule,
                DEFAULT_BATCH_SIZE,
                &mut clock,
                |op| server.borrow_mut().write(op),
                |batch| match server.borrow_mut().serve(batch, &mut decisions) {
                    Ok(()) => true,
                    Err(e) => {
                        batch_errors.push(e);
                        false
                    }
                },
            )
        };
        failures += failed;
        for e in batch_errors {
            out.problems.push(format!("rate {rate}: batch failed: {e}"));
        }
        steps.push(Step { rate, stats, hash: decision_hash(&mut decisions) });
    }

    // Churn: pin the end-of-ladder state, which the fixed schedule makes
    // deterministic.
    let sample: Vec<usize> = all[..ORACLE_SAMPLE].to_vec();
    let ladder_hash = if churn { Some(decision_hash(&mut server.decide(&sample)?)) } else { None };

    // Closed loop: full batches back to back until the budget is spent.
    let mut pass_qps = Vec::new();
    let mut closed_hashes = Vec::new();
    loop {
        let pass = Instant::now();
        let mut decisions = Vec::new();
        for batch in all.chunks(DEFAULT_BATCH_SIZE) {
            for _ in 0..write_pairs * batch.len() / 8 {
                for op in [Op::Insert, Op::Remove] {
                    attempted += 1;
                    if !server.write(op) {
                        failures += 1;
                    }
                }
            }
            attempted += batch.len();
            if let Err(e) = server.serve(batch, &mut decisions) {
                failures += batch.len();
                out.problems.push(format!("closed loop: batch failed: {e}"));
            }
        }
        pass_qps.push(all.len() as f64 / pass.elapsed().as_secs_f64());
        closed_hashes.push(decision_hash(&mut decisions));
        if measure.elapsed().as_secs_f64() >= args.seconds {
            break;
        }
    }
    let measured_s = measure.elapsed().as_secs_f64();
    let report = transer_trace::take_global_report();
    transer_trace::set_enabled(false);

    // Checks.
    for e in server.write_errors.drain(..) {
        out.problems.push(format!("write failed: {e}"));
    }
    // A decision set that differs from its oracle, or scores below the F1
    // floor, counts all its queries as failed.
    let mut mismatch = |out: &mut Outcome, ok: bool, queries: usize, what: String| {
        if !ok {
            failures += queries;
            out.problems.push(what);
        }
    };
    if churn {
        let live = server.decide(&sample)?;
        let mut live_sorted = live.clone();
        let mut fresh = fresh_oracle(&server, &sample)?;
        let same = decision_hash(&mut live_sorted) == decision_hash(&mut fresh);
        let what = "live service after churn differs from a fresh service over the survivors";
        mismatch(&mut out, same, sample.len(), what.into());
        let hash = ladder_hash.unwrap_or(0);
        println!("  decision_hash (after ladder)   {hash:016x}");
        if args.seed == DEFAULT_SEED {
            let what = format!("decision hash {hash:016x} != committed {CHURN_DECISION_HASH:016x}");
            mismatch(&mut out, hash == CHURN_DECISION_HASH, sample.len(), what);
        }
        let f = serve_f1(&server, &sample, &live);
        mismatch(&mut out, f >= MIN_F1, sample.len(), format!("f1 {f:.4} below {MIN_F1}"));
        out.set("f1", f);
    } else {
        for step in &steps {
            let what = format!("rate {}: decisions differ from the offline oracle", step.rate);
            mismatch(&mut out, step.hash == oracle_hash, QUERIES, what);
        }
        for &h in &closed_hashes {
            let what = "closed loop: decisions differ from the offline oracle".to_string();
            mismatch(&mut out, h == oracle_hash, QUERIES, what);
        }
        println!("  decision_hash                  {oracle_hash:016x}");
        if args.seed == DEFAULT_SEED {
            let what =
                format!("decision hash {oracle_hash:016x} != committed {READ_DECISION_HASH:016x}");
            mismatch(&mut out, oracle_hash == READ_DECISION_HASH, QUERIES, what);
        }
        let f = serve_f1(&server, &all, &oracle);
        mismatch(&mut out, f >= MIN_F1, QUERIES, format!("f1 {f:.4} below {MIN_F1}"));
        out.set("f1", f);
    }

    // Latency at the lowest rate; the highest rate that meets the SLO.
    let mut low = OpenLoopStats::default();
    for step in steps.iter().filter(|s| s.rate == RATES[0]) {
        low.query_latency.extend(&step.stats.query_latency);
        low.queue_wait.extend(&step.stats.queue_wait);
        low.write_latency.extend(&step.stats.write_latency);
        low.batch_sizes.extend(&step.stats.batch_sizes);
    }
    let low = &low;
    let p50 = percentile(&low.query_latency, 50.0);
    let p99 = percentile(&low.query_latency, 99.0);
    out.check(p99.is_some(), || "lowest rate: too few queries for a p99".into());
    let mut max_qps_slo = 0.0;
    for rate in RATES {
        let mut ok = true;
        for step in steps.iter().filter(|s| s.rate == rate) {
            let p99 = percentile(&step.stats.query_latency, 99.0).unwrap_or(f64::INFINITY);
            ok &= p99 <= SLO_S && step.stats.end_lag <= SLO_S;
            out.info(&format!("rate {rate:>6}: query p99 ms"), p99 * 1e3, "ms");
        }
        if ok {
            max_qps_slo = rate;
        }
    }
    let writes = &low.write_latency;
    let update = highest_supported(writes, &WRITE_PERCENTILES);
    if churn {
        out.check(update.is_some(), || "lowest rate: too few writes for a percentile".into());
    }
    let sat_qps = median(&pass_qps);
    out.attempted = attempted as u64;
    out.failed = failures as u64;

    if args.trace {
        let layers = &server.layers;
        let batches = layers.batches.max(1) as f64;
        out.set("serve.block_ms_per_batch", layers.block * 1e3 / batches);
        out.set("serve.candidates_per_query", layers.pairs as f64 / layers.queries.max(1) as f64);
        out.set("serve.compare_ms_per_batch", layers.compare * 1e3 / batches);
        out.set(
            "serve.prepared_per_pair",
            report.counter("compare.prepared") as f64 / layers.pairs.max(1) as f64,
        );
        out.set("serve.predict_ms_per_batch", layers.predict * 1e3 / batches);
        out.set(
            "serve.queue_wait_p99_ms",
            percentile(&low.queue_wait, 99.0).unwrap_or(f64::NAN) * 1e3,
        );
        out.set(
            "serve.batch_size_mean",
            low.batch_sizes.iter().sum::<usize>() as f64 / low.batch_sizes.len().max(1) as f64,
        );
        out.set("serve.query_p99_ms", p99.unwrap_or(f64::NAN) * 1e3);
        out.set("serve.max_qps_slo", max_qps_slo);
        if churn {
            out.set("serve.update_p95_ms", update.map_or(f64::NAN, |(_, v)| v * 1e3));
            out.set("serve.insert_us_p50", median_or_nan(&server.insert_s) * 1e6);
            out.set("serve.remove_us_p50", median_or_nan(&server.remove_s) * 1e6);
            out.set("serve.compactions", server.compactions as f64);
        }
        out.set("serve.tombstones_end", server.inputs.service.index().tombstones() as f64);
        out.set("serve.record_slots_end", server.inputs.slots.len() as f64);
        out.set("datagen_s", median(&datagen));
        // Overhead: the traced closed-loop pass against the untraced one.
        out.set("trace.overhead_frac", overhead.unwrap_or(f64::NAN));
        let writes_s = server.insert_s.iter().chain(&server.remove_s).fold(0.0, |a, b| a + b);
        let idle = steps.iter().fold(0.0, |a, s| a + s.stats.idle);
        let covered = layers.block + layers.compare + layers.predict + writes_s + idle;
        out.set("trace.layer_coverage_frac", covered / measured_s);
        print_layer_table(
            &[
                ("serve.block", layers.block),
                ("serve.compare", layers.compare),
                ("serve.predict", layers.predict),
                ("serve.writes", writes_s),
                ("dispatcher idle", idle),
            ],
            measured_s,
        );
    } else {
        out.set("setup_s", setup_s);
        out.set("items_per_s", sat_qps);
        out.set("latency_p50_ms", p50.unwrap_or(f64::NAN) * 1e3);
        out.set("peak_rss_mb", peak_rss_mb());
        out.info("query_p50_ms", p50.unwrap_or(f64::NAN) * 1e3, "ms");
        out.info("query_p99_ms", p99.unwrap_or(f64::NAN) * 1e3, "ms");
        out.info("query_samples_at_lowest_rate", low.query_latency.len() as f64, "count");
        out.info("max_qps_slo", max_qps_slo, "1/s");
        out.info("sat_qps", sat_qps, "1/s");
        if let Some((p, v)) = update {
            out.info(&format!("update_p{p:.0}_ms ({} writes)", writes.len()), v * 1e3, "ms");
        }
    }
    Ok(out)
}

fn median_or_nan(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        f64::NAN
    } else {
        median(samples)
    }
}
