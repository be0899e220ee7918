//! The two batch workloads: `batch-link` (records in, labels out) and
//! `transfer-vectors` (feature vectors in, labels out).

use std::collections::HashMap;
use std::time::Instant;

use transer_blocking::{token_hashes_masked, MinHashLsh};
use transer_common::{FeatureMatrix, Label, Record};
use transer_core::{
    generate_pseudo_labels, select_instances, train_target_classifier, TransEr, TransErConfig,
};
use transer_datagen::vectors::{domain_pair, VectorDomainConfig};
use transer_datagen::{ScaleConfig, ScaleGen};
use transer_knn::{DedupKnn, IndexKind};
use transer_ml::ClassifierKind;
use transer_parallel::Pool;

use crate::stats::{f1, fnv_words, median};
use crate::{peak_rss_mb, print_layer_table, Args, Outcome, DEFAULT_SEED, MIN_F1};

/// Records per domain of each `batch-link` linkage task.
const LINK_ROWS: usize = 100_000;
/// FNV label hash of `batch-link`'s target labels at [`DEFAULT_SEED`].
const LINK_LABEL_HASH: u64 = 0x21cf_d37b_77e1_452e;

/// Source and target rows of `transfer-vectors`.
const VECTOR_ROWS: usize = 30_000;
/// FNV label hash of `transfer-vectors`' target labels at [`DEFAULT_SEED`].
const VECTOR_LABEL_HASH: u64 = 0xc71a_1f4d_77c1_146e;

/// Times the inputs are generated during set-up; `setup_s` is the median.
const SETUP_REPS: usize = 5;

/// Below this blocking is broken, not slow (see [`MIN_F1`]).
const MIN_PAIR_COMPLETENESS: f64 = 0.8;

/// The wall time of every call of a repeated run, and the last result.
struct Timed<T> {
    secs: Vec<f64>,
    last: T,
}

/// Run `f` until `seconds` have passed (at least once), timing each call.
fn repeat<T>(seconds: f64, mut f: impl FnMut() -> Result<T, String>) -> Result<Timed<T>, String> {
    let start = Instant::now();
    let mut secs = Vec::new();
    loop {
        let t = Instant::now();
        let last = f()?;
        secs.push(t.elapsed().as_secs_f64());
        if start.elapsed().as_secs_f64() >= seconds {
            return Ok(Timed { secs, last });
        }
    }
}

/// Hash of the labels, one word per label.
fn label_hash(labels: &[Label]) -> u64 {
    fnv_words(labels.iter().map(|l| u64::from(l.is_match())))
}

fn count_matches(labels: &[Label]) -> usize {
    labels.iter().filter(|l| l.is_match()).count()
}

/// F1 of `pred` against `truth`, with `actual` true matches in total
/// (more than `truth` holds when blocking missed some).
fn label_f1(pred: &[Label], truth: &[Label], actual: usize) -> f64 {
    let tp = pred.iter().zip(truth).filter(|(p, t)| p.is_match() && t.is_match()).count();
    f1(tp, count_matches(pred), actual)
}

/// One linkage task: both domains and the number of true cross-domain
/// matches among them.
struct LinkTask {
    left: Vec<Record>,
    right: Vec<Record>,
    true_matches: usize,
}

impl LinkTask {
    fn generate(seed: u64) -> Result<Self, String> {
        let gen = ScaleGen::new(ScaleConfig::new(LINK_ROWS).with_seed(seed))
            .map_err(|e| e.to_string())?;
        let (left, right) = gen.pair();
        let mut per_entity: HashMap<u64, usize> = HashMap::new();
        for r in &left {
            *per_entity.entry(r.entity).or_default() += 1;
        }
        let true_matches =
            right.iter().map(|r| per_entity.get(&r.entity).copied().unwrap_or(0)).sum();
        Ok(LinkTask { left, right, true_matches })
    }

    fn records(&self) -> impl Iterator<Item = &Record> {
        self.left.iter().chain(&self.right)
    }
}

/// Block and compare one task.
fn link(lsh: &MinHashLsh, task: &LinkTask) -> Result<(FeatureMatrix, Vec<Label>), String> {
    let pairs =
        lsh.candidate_pairs_masked(&task.left, &task.right, Some(ScaleGen::blocking_attrs()));
    ScaleGen::comparison().compare_pairs(&task.left, &task.right, &pairs).map_err(|e| e.to_string())
}

fn transer(seed: u64) -> Result<TransEr, String> {
    TransEr::new(TransErConfig::default(), ClassifierKind::RandomForest, seed)
        .map_err(|e| e.to_string())
}

/// SEL → GEN → TCL called one phase at a time, mirroring
/// `TransEr::fit_predict` and its fallback ladder, so each phase can be
/// timed on its own. The labels must hash equal to `fit_predict`'s.
struct Phases {
    labels: Vec<Label>,
    sel_s: f64,
    selected: usize,
    gen_s: f64,
    tcl_s: f64,
    tcl_kept: usize,
    fallbacks: usize,
}

fn run_phases(
    xs: &FeatureMatrix,
    ys: &[Label],
    xt: &FeatureMatrix,
    seed: u64,
) -> Result<Phases, String> {
    let cfg = TransErConfig::default();
    let kind = ClassifierKind::RandomForest;
    let err = |e: transer_common::Error| e.to_string();
    let mut fallbacks = 0;

    let t = Instant::now();
    let sel = select_instances(xs, ys, xt, &cfg).map_err(err)?;
    let (mut xu, mut yu) = sel.transferred(xs, ys);
    let selected = xu.rows();
    let m = count_matches(&yu);
    if xu.rows() < 2 || m == 0 || m == yu.len() {
        fallbacks += 1;
        xu = xs.clone();
        yu = ys.to_vec();
    }
    let sel_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let mut cu = kind.build(seed);
    let pseudo = match generate_pseudo_labels(cu.as_mut(), &xu, &yu, xt) {
        Ok(p) => p,
        Err(_) => {
            // GEN's ladder: classify directly from the transferred set,
            // then from the full source.
            fallbacks += 1;
            let mut direct = kind.build(seed);
            let labels = match direct.fit(&xu, &yu) {
                Ok(()) => direct.predict(xt),
                Err(_) => {
                    fallbacks += 1;
                    let mut direct = kind.build(seed);
                    direct.fit(xs, ys).map_err(err)?;
                    direct.predict(xt)
                }
            };
            let gen_s = t.elapsed().as_secs_f64();
            return Ok(Phases {
                labels,
                sel_s,
                selected,
                gen_s,
                tcl_s: 0.0,
                tcl_kept: 0,
                fallbacks,
            });
        }
    };
    let gen_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let mut cv = kind.build(seed.wrapping_add(1));
    let (labels, tcl_kept) =
        match train_target_classifier(cv.as_mut(), xt, &pseudo, cfg.t_p, cfg.balance_ratio, seed) {
            Ok(out) => (out.labels, out.candidate_count),
            Err(_) => {
                fallbacks += 1;
                (pseudo.labels.clone(), 0)
            }
        };
    let tcl_s = t.elapsed().as_secs_f64();
    Ok(Phases { labels, sel_s, selected, gen_s, tcl_s, tcl_kept, fallbacks })
}

/// Record the core-layer metrics of one traced phase run.
fn core_layers(out: &mut Outcome, p: &Phases, xs: &FeatureMatrix, xt_rows: usize) {
    out.set("core.sel_s", p.sel_s);
    out.set("core.sel_selected_frac", p.selected as f64 / xs.rows() as f64);
    out.set("core.gen_s", p.gen_s);
    out.set("core.tcl_s", p.tcl_s);
    out.set("core.tcl_kept_frac", p.tcl_kept as f64 / xt_rows as f64);
    out.set("core.fallbacks", p.fallbacks as f64);
    let interning = DedupKnn::build(xs, IndexKind::from_env());
    let interning = interning.interning();
    out.set(
        "knn.unique_rows_frac",
        interning.unique_rows() as f64 / interning.original_rows().max(1) as f64,
    );
}

/// Check every run's label hash: against the committed one at the default
/// seed, else against the first run's. A run whose labels differ failed.
fn check_label_hashes(out: &mut Outcome, args: &Args, hashes: &[u64], committed: u64) {
    let expected = if args.seed == DEFAULT_SEED { committed } else { hashes[0] };
    println!("  label_hash                     {:016x}", hashes[0]);
    let failed = hashes.iter().filter(|&&h| h != expected).count();
    out.attempted = hashes.len() as u64;
    out.failed = failed as u64;
    out.check(failed == 0, || {
        format!("{failed} of {} runs: label hash != expected {expected:016x}", hashes.len())
    });
}

/// A quality figure below its floor means wrong output: every run failed.
fn check_floor(out: &mut Outcome, what: &str, value: f64, floor: f64) {
    if value < floor {
        out.failed = out.attempted;
        out.problems.push(format!("{what} {value:.4} below {floor}"));
    }
}

/// `batch-link`: two linkage tasks, block → compare → fit_predict.
pub fn batch_link(args: &Args) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let (src_seed, tgt_seed) = (args.seed, args.seed.wrapping_add(1000));

    let mut setup = Vec::new();
    let mut tasks = None;
    for _ in 0..SETUP_REPS {
        drop(tasks.take());
        let t = Instant::now();
        tasks = Some((LinkTask::generate(src_seed)?, LinkTask::generate(tgt_seed)?));
        setup.push(t.elapsed().as_secs_f64());
    }
    let (source, target) = tasks.ok_or("no set-up")?;
    let setup_s = median(&setup);
    let lsh = MinHashLsh::new(ScaleGen::lsh_config()).map_err(|e| e.to_string())?;
    let pipeline = transer(src_seed)?;
    let records = 2 * (source.left.len() + source.right.len());

    // One block → label run over both tasks.
    let run = || -> Result<(Vec<Label>, Vec<Label>, usize, usize), String> {
        let (xs, ys) = link(&lsh, &source)?;
        let (xt, yt) = link(&lsh, &target)?;
        let labels = pipeline.fit_predict(&xs, &ys, &xt).map_err(|e| e.to_string())?.labels;
        Ok((labels, yt, count_matches(&ys), xs.rows() + xt.rows()))
    };

    if args.trace {
        return batch_link_traced(args, out, &lsh, &source, &target, setup_s, run);
    }

    let mut hashes = Vec::new();
    let timed = repeat(args.seconds, || {
        let r = run()?;
        hashes.push(label_hash(&r.0));
        Ok(r)
    })?;
    let (labels, yt, source_found, candidates) = timed.last;
    check_label_hashes(&mut out, args, &hashes, LINK_LABEL_HASH);

    let f = label_f1(&labels, &yt, target.true_matches);
    let completeness = (source_found + count_matches(&yt)) as f64
        / (source.true_matches + target.true_matches) as f64;
    check_floor(&mut out, "f1", f, MIN_F1);
    check_floor(&mut out, "pair completeness", completeness, MIN_PAIR_COMPLETENESS);
    let secs = median(&timed.secs);
    out.set("setup_s", setup_s);
    out.set("items_per_s", records as f64 / secs);
    out.set("latency_p50_ms", secs * 1e3);
    out.set("f1", f);
    out.set("peak_rss_mb", peak_rss_mb());
    out.info("records_per_s", records as f64 / secs, "1/s");
    out.info("pair_completeness", completeness, "ratio");
    out.info("candidates", candidates as f64, "count");
    out.info("runs", timed.secs.len() as f64, "count");
    Ok(out)
}

/// The traced `batch-link` pass: one untraced run for the overhead
/// baseline, probes that split blocking into tokenise / sign / bucket, then
/// the block → compare → SEL → GEN → TCL path with each layer timed.
fn batch_link_traced(
    args: &Args,
    mut out: Outcome,
    lsh: &MinHashLsh,
    source: &LinkTask,
    target: &LinkTask,
    setup_s: f64,
    run: impl Fn() -> Result<(Vec<Label>, Vec<Label>, usize, usize), String>,
) -> Result<Outcome, String> {
    let t = Instant::now();
    let (untraced_labels, ..) = run()?;
    let untraced_s = t.elapsed().as_secs_f64();

    transer_trace::set_enabled(true);
    let _ = transer_trace::take_global_report();
    let pool = Pool::global();
    let attrs = Some(ScaleGen::blocking_attrs());
    let all: Vec<&Record> = source.records().chain(target.records()).collect();

    // Probes (not part of the traced wall): the pieces of the band-key
    // computation that `candidate_pairs_masked` runs internally.
    let t = Instant::now();
    let hashes: Vec<Vec<u64>> = pool.par_map(&all, |r| token_hashes_masked(r, attrs));
    let tokenize_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let sigs: Vec<Vec<u64>> = pool.par_map(&hashes, |h| lsh.signature(h));
    let sign_s = t.elapsed().as_secs_f64();
    std::hint::black_box(&sigs);
    let t = Instant::now();
    let keys: Vec<Option<Vec<u64>>> = pool.par_map(&all, |r| lsh.record_band_keys(r, attrs));
    let band_keys_s = t.elapsed().as_secs_f64();
    std::hint::black_box(&keys);

    // The traced path, layer by layer.
    let wall = Instant::now();
    let mut cand_s = 0.0;
    let mut compare_s = 0.0;
    let mut candidates = 0;
    let mut blocked = Vec::new();
    for task in [source, target] {
        let t = Instant::now();
        let pairs = lsh.candidate_pairs_masked(&task.left, &task.right, attrs);
        cand_s += t.elapsed().as_secs_f64();
        candidates += pairs.len();
        let t = Instant::now();
        let xy = ScaleGen::comparison()
            .compare_pairs(&task.left, &task.right, &pairs)
            .map_err(|e| e.to_string())?;
        compare_s += t.elapsed().as_secs_f64();
        blocked.push(xy);
    }
    let (xt, yt) = blocked.pop().ok_or("no target")?;
    let (xs, ys) = blocked.pop().ok_or("no source")?;
    let phases = run_phases(&xs, &ys, &xt, args.seed)?;
    let traced_s = wall.elapsed().as_secs_f64();
    let report = transer_trace::take_global_report();
    transer_trace::set_enabled(false);

    // The phase-by-phase labels must hash equal to `fit_predict`'s.
    let label_hashes = [label_hash(&untraced_labels), label_hash(&phases.labels)];
    check_label_hashes(&mut out, args, &label_hashes, LINK_LABEL_HASH);
    let found = count_matches(&ys) + count_matches(&yt);
    let pairs = (xs.rows() + xt.rows()) as f64;
    out.set("blocking.tokenize_s", tokenize_s);
    out.set("blocking.tokens", hashes.iter().map(Vec::len).sum::<usize>() as f64);
    out.set("blocking.sign_s", sign_s);
    out.set("blocking.sign_ns_per_record", sign_s * 1e9 / all.len() as f64);
    out.set("blocking.bucket_s", cand_s - band_keys_s);
    out.set("blocking.candidates", candidates as f64);
    out.set("blocking.true_pair_frac", found as f64 / candidates.max(1) as f64);
    out.set(
        "blocking.pair_completeness",
        found as f64 / (source.true_matches + target.true_matches) as f64,
    );
    out.set("compare.busy_s", compare_s);
    out.set("compare.ns_per_pair", compare_s * 1e9 / pairs);
    out.set("compare.prepared_per_pair", report.counter("compare.prepared") as f64 / pairs);
    core_layers(&mut out, &phases, &xs, xt.rows());
    out.set("datagen_s", setup_s);
    out.set("trace.overhead_frac", traced_s / untraced_s - 1.0);
    let layers = cand_s + compare_s + phases.sel_s + phases.gen_s + phases.tcl_s;
    out.set("trace.layer_coverage_frac", layers / traced_s);
    print_layer_table(
        &[
            ("blocking (band keys)", band_keys_s),
            ("blocking (bucket)", cand_s - band_keys_s),
            ("compare", compare_s),
            ("core.sel", phases.sel_s),
            ("core.gen", phases.gen_s),
            ("core.tcl", phases.tcl_s),
        ],
        traced_s,
    );
    Ok(out)
}

/// The `transfer-vectors` inputs: a source/target pair of 9-feature
/// vector domains with shifted marginals and a conflicted source band.
fn vector_inputs(seed: u64) -> Result<transer_common::DomainPair, String> {
    let cfg = VectorDomainConfig {
        n: VECTOR_ROWS,
        m: 9,
        conflict_mass: 0.1,
        conflict_ambiguous: true,
        seed,
        ..VectorDomainConfig::default()
    };
    domain_pair(&cfg, 0.05, 0.02, VECTOR_ROWS).map_err(|e| e.to_string())
}

/// `transfer-vectors`: `TransEr::fit_predict` on precomputed vectors.
pub fn transfer_vectors(args: &Args) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut setup = Vec::new();
    let mut pair = None;
    for _ in 0..SETUP_REPS {
        drop(pair.take());
        let t = Instant::now();
        pair = Some(vector_inputs(args.seed)?);
        setup.push(t.elapsed().as_secs_f64());
    }
    let pair = pair.ok_or("no set-up")?;
    let setup_s = median(&setup);
    let (xs, ys, xt, yt) = (&pair.source.x, &pair.source.y, &pair.target.x, &pair.target.y);
    let pipeline = transer(args.seed)?;
    let fit = || pipeline.fit_predict(xs, ys, xt).map(|o| o.labels).map_err(|e| e.to_string());

    if args.trace {
        let t = Instant::now();
        let untraced = fit()?;
        let untraced_s = t.elapsed().as_secs_f64();
        transer_trace::set_enabled(true);
        let t = Instant::now();
        let phases = run_phases(xs, ys, xt, args.seed)?;
        let traced_s = t.elapsed().as_secs_f64();
        let _ = transer_trace::take_global_report();
        transer_trace::set_enabled(false);
        let hashes = [label_hash(&untraced), label_hash(&phases.labels)];
        check_label_hashes(&mut out, args, &hashes, VECTOR_LABEL_HASH);
        core_layers(&mut out, &phases, xs, xt.rows());
        out.set("datagen_s", setup_s);
        out.set("trace.overhead_frac", traced_s / untraced_s - 1.0);
        let layers = phases.sel_s + phases.gen_s + phases.tcl_s;
        out.set("trace.layer_coverage_frac", layers / traced_s);
        print_layer_table(
            &[("core.sel", phases.sel_s), ("core.gen", phases.gen_s), ("core.tcl", phases.tcl_s)],
            traced_s,
        );
        return Ok(out);
    }

    let mut hashes = Vec::new();
    let timed = repeat(args.seconds, || {
        let labels = fit()?;
        hashes.push(label_hash(&labels));
        Ok(labels)
    })?;
    check_label_hashes(&mut out, args, &hashes, VECTOR_LABEL_HASH);
    let f = label_f1(&timed.last, yt, count_matches(yt));
    check_floor(&mut out, "f1", f, MIN_F1);
    let secs = median(&timed.secs);
    out.set("setup_s", setup_s);
    out.set("items_per_s", xt.rows() as f64 / secs);
    out.set("latency_p50_ms", secs * 1e3);
    out.set("f1", f);
    out.set("peak_rss_mb", peak_rss_mb());
    out.info("pairs_per_s", xt.rows() as f64 / secs, "1/s");
    out.info("runs", timed.secs.len() as f64, "count");
    Ok(out)
}
