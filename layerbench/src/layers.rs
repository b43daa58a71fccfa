//! The traced run: the workload's seeded request stream replayed with spans
//! around every call, then each layer's public functions timed from the
//! benchmark's own code, in this order:
//!
//! kernel/engine → `Session<Database>` → `Session<AnyBackend>` → durable
//! session → `ConcurrentStore` snapshot → `Client` over the wire,
//!
//! plus lineage confidence, the UWSDT and WSD representations and the
//! observer.  Every per-layer metric comes from the recorded spans; the
//! seed's baseline findings (a)–(d) are printed as measured.

use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::{Duration, Instant};

use maybms::census::{census_dependencies, CensusScenario, RELATION_NAME};
use maybms::obs::Observer;
use maybms::relational::engine::{evaluate_query_with, EngineConfig};
use maybms::relational::lineage::{evaluate_lineage, is_safe_shape, safe_probabilities};
use maybms::relational::{Database, DtreeCompiler, QueryBackend, RaExpr, Tuple};
use maybms::storage::MemVfs;
use maybms::{AnyBackend, Prepared, Session, SessionBackend, UpdateExpr};

use crate::inputs::{self, answer_set, Op};
use crate::report::{median, Outcome, Tally};
use crate::trace::{self, Replayed, Tracer};
use crate::workloads::{err, Service, SessionStack, Sizes, Workload, CLIENTS, DENSITY};

/// Repetitions of each query per one-world layer.
const REPS: usize = 15;
/// Repetitions of each query in the UWSDT confidence breakdown.
const CONF_REPS: usize = 3;
/// Requests of the `wsd_small` mix in one session for `core.exec_growth`.
const CORE_OPS: usize = 100;
/// Inserts per write-path measurement.
const WRITES: usize = 100;
/// Repetitions of each query over the wire.
const WIRE_REPS: usize = 5;
/// Requests per client in the served mix that counts re-pins.
const SERVED_OPS: u64 = 40;
/// Blocks of the `census_embedded` mix, and requests per block, in the
/// observed-versus-plain comparison.
const OBS_BLOCKS: usize = 12;
const OBS_BLOCK: usize = 20;

const SCRATCH: &str = "__layerbench_out";

/// Inserted ids per probe stay apart from each other and from the
/// workloads' own inserts.
fn insert(block: i64, n: usize) -> UpdateExpr {
    UpdateExpr::insert(
        RELATION_NAME,
        inputs::insert_tuple(block * 1_000_000_000 + n as i64),
    )
}

/// Replay, then the layer ladder; returns the per-layer metrics.
pub fn run(
    workload: Workload,
    sizes: Sizes,
    seed: u64,
    budget: Duration,
) -> Result<Outcome, String> {
    let tracer = Tracer::default();
    let mut tally = Tally::default();
    let mut out = Outcome::default();

    let log = replay(workload, sizes, seed, budget, &tracer, &mut tally)?;
    out.set("trace.overhead", trace::overhead(&log)?);

    let db = CensusScenario::new(sizes.census, 0.0, seed).one_world();
    let mut findings = Vec::new();
    engine_and_sessions(&db, &tracer, &mut out, &mut findings, &mut tally)?;
    confidence_and_uwsdt(sizes, seed, &tracer, &mut out, &mut findings)?;
    core(sizes, seed, &tracer, &mut out, &mut findings)?;
    storage(&db, &tracer, &mut out)?;
    store_and_wire(sizes, seed, &tracer, &mut out, &mut findings, &mut tally)?;
    observability(&db, seed, &tracer, &mut out)?;

    print!("{}", tracer.summary());
    for line in findings {
        println!("# finding {line}");
    }
    out.attempted = tally.attempted;
    out.failed = tally.failed;
    Ok(out)
}

/// The workload's own request stream for `budget`, every other pair of
/// requests inside a span.
fn replay(
    workload: Workload,
    sizes: Sizes,
    seed: u64,
    budget: Duration,
    tracer: &Tracer,
    tally: &mut Tally,
) -> Result<Vec<Replayed>, String> {
    if workload == Workload::ServiceMixed {
        let (mut service, _) = Service::build(sizes, seed, None)?;
        let started = Instant::now();
        let streams = (0..CLIENTS).map(|c| workload.stream(seed, c)).collect();
        let runs = service.serve(streams, Some(tracer), &|_, _| started.elapsed() >= budget);
        let mut log = Vec::new();
        for run in runs {
            tally.absorb(run.tally);
            log.extend(run.log);
        }
        service.shutdown()?;
        return Ok(log);
    }
    let (mut stack, _) = SessionStack::build(workload, sizes, seed, None)?;
    let started = Instant::now();
    let mut stream = workload.stream(seed, 0);
    let mut log = Vec::new();
    let mut i = 0;
    while started.elapsed() < budget {
        let op = stream.next().expect("request decks are endless");
        let begun = Instant::now();
        let traced = trace::traced_turn(i);
        let (latency, ok) = if traced {
            let label = match op {
                Op::Exec(q) | Op::Conf(q) => stack.labels[q],
                Op::Write => "",
            };
            tracer.span(0, trace::span_name(op), label, |_| stack.step(op))
        } else {
            stack.step(op)
        };
        log.push(Replayed {
            op,
            traced,
            wall: begun.elapsed(),
        });
        tally.record(op.kind(), latency, ok);
        i += 1;
    }
    Ok(log)
}

/// Median over queries of (median of `upper` spans / median of `lower`
/// spans), with the per-query ratios.
fn ratio_by_query(
    tracer: &Tracer,
    upper: &str,
    lower: &str,
    labels: &[&'static str],
) -> (f64, Vec<(&'static str, f64, f64)>) {
    let per_query: Vec<(&'static str, f64, f64)> = labels
        .iter()
        .map(|&label| {
            (
                label,
                median(&tracer.durations_for(upper, label)),
                median(&tracer.durations_for(lower, label)),
            )
        })
        .collect();
    let ratios: Vec<f64> = per_query.iter().map(|(_, u, l)| u / l).collect();
    (median(&ratios), per_query)
}

fn prepare_all<B: SessionBackend>(
    session: &mut Session<B>,
    queries: &[(&'static str, RaExpr)],
) -> Result<Vec<Prepared>, String>
where
    B::Error: Into<maybms::Error>,
{
    queries
        .iter()
        .map(|(label, q)| {
            session
                .prepare(q.clone())
                .map_err(|e| format!("{label}: {e}"))
        })
        .collect()
}

/// Kernel/engine on a bare `Database`, `Session<Database>` and
/// `Session<AnyBackend>` on the same plans, interleaved; the three answers
/// must hold the same tuples.
fn engine_and_sessions(
    db: &Database,
    tracer: &Tracer,
    out: &mut Outcome,
    findings: &mut Vec<String>,
    tally: &mut Tally,
) -> Result<(), String> {
    let queries = inputs::embedded_queries();
    let labels: Vec<&'static str> = queries.iter().map(|(l, _)| *l).collect();
    let mut bare = db.clone();
    let mut typed = Session::new(db.clone());
    let mut any = Session::over(db.clone());
    let typed_plans = prepare_all(&mut typed, &queries)?;
    let any_plans = prepare_all(&mut any, &queries)?;
    // The plan is already optimized: execute it as the session does.
    let config = EngineConfig {
        optimize: false,
        drop_temps: true,
        ..EngineConfig::default()
    };
    for _ in 0..REPS {
        for (i, (label, query)) in queries.iter().enumerate() {
            // Each layer hands the caller the answer's rows.
            let bare_rows = tracer.span(0, "relational.exec", label, |_| {
                evaluate_query_with(&mut bare, typed_plans[i].plan(), SCRATCH, config)
                    .and_then(|_| bare.relation(SCRATCH).map(|r| r.rows().to_vec()))
            });
            bare.drop_scratch(SCRATCH);
            let bare_rows = bare_rows.map_err(err("relational.exec"))?;
            let typed_rows: Vec<Tuple> = tracer
                .span(0, "session.db_exec", label, |_| {
                    typed.execute(&typed_plans[i]).map(Iterator::collect)
                })
                .map_err(err("session.db_exec"))?;
            let any_rows: Vec<Tuple> = tracer
                .span(0, "session.any_exec", label, |_| {
                    any.execute(&any_plans[i]).map(Iterator::collect)
                })
                .map_err(err("session.any_exec"))?;
            let answer = answer_set(bare_rows);
            let agree = answer == answer_set(typed_rows) && answer == answer_set(any_rows);
            tally.check(agree);
            tracer
                .span(0, "session.prepare", label, |_| {
                    typed.clear_plan_cache();
                    typed.prepare(query.clone())
                })
                .map_err(err("session.prepare"))?;
        }
    }
    out.set("relational.exec_us", tracer.median("relational.exec")?);
    out.set("session.db_exec_us", tracer.median("session.db_exec")?);
    out.set("session.any_exec_us", tracer.median("session.any_exec")?);
    out.set("session.prepare_us", tracer.median("session.prepare")?);
    let (ratio, per_query) = ratio_by_query(tracer, "session.any_exec", "session.db_exec", &labels);
    out.set("session.any_over_db", ratio);
    let (_, q1_any, q1_db) = per_query[0];
    let spread: Vec<String> = per_query
        .iter()
        .map(|(l, a, d)| format!("{l} {:.2}x", a / d))
        .collect();
    findings.push(format!(
        "(a) session.any_over_db = {ratio:.2}x [{}]; Q1 through Session<AnyBackend> {:.2} ms vs Session<Database> {:.2} ms \
         (seed: 2.0-3.6x; Q1 1.42 vs 0.67 ms) -> {}",
        spread.join(", "),
        q1_any / 1e3,
        q1_db / 1e3,
        direction(ratio > 1.0)
    ));
    Ok(())
}

fn direction(holds: bool) -> &'static str {
    if holds {
        "reproduced in direction"
    } else {
        "NOT reproduced"
    }
}

/// The chase, typed `Session<Uwsdt>` execution, and `confidence` through
/// `Session<AnyBackend>` broken into lineage extraction, the safe plan,
/// annotated evaluation and d-tree compilation.
fn confidence_and_uwsdt(
    sizes: Sizes,
    seed: u64,
    tracer: &Tracer,
    out: &mut Outcome,
    findings: &mut Vec<String>,
) -> Result<(), String> {
    let scenario = CensusScenario::new(sizes.census, DENSITY, seed);
    let dependencies = census_dependencies();
    let mut chased = None;
    for _ in 0..3 {
        let mut uwsdt = scenario.dirty_uwsdt().map_err(err("dirty UWSDT"))?;
        tracer
            .span(0, "uwsdt.chase", "", |_| {
                maybms::uwsdt::chase::chase(&mut uwsdt, &dependencies)
            })
            .map_err(err("uwsdt.chase"))?;
        chased = Some(uwsdt);
    }
    let uwsdt = chased.expect("chased at least once");
    out.set("uwsdt.chase_s", tracer.median("uwsdt.chase")? / 1e6);

    let queries = inputs::paper_queries();
    let mut typed = Session::new(uwsdt.clone());
    let mut any = Session::over(uwsdt);
    let typed_plans = prepare_all(&mut typed, &queries)?;
    let any_plans = prepare_all(&mut any, &queries)?;
    let relations: BTreeSet<String> = [RELATION_NAME.to_string()].into();
    for _ in 0..CONF_REPS {
        for (i, (label, _)) in queries.iter().enumerate() {
            tracer
                .span(0, "uwsdt.exec", label, |_| {
                    typed.execute(&typed_plans[i]).map(Iterator::count)
                })
                .map_err(err("uwsdt.exec"))?;
            tracer
                .span(0, "conf.exec", label, |_| {
                    any.execute(&any_plans[i]).map(Iterator::count)
                })
                .map_err(err("conf.exec"))?;
            tracer
                .span(0, "conf.confidence", label, |_| {
                    any.confidence(&any_plans[i])
                })
                .map_err(err("conf.confidence"))?;
            let lineage = tracer
                .span(0, "conf.extract", label, |_| {
                    any.backend().lineage(&relations)
                })
                .ok_or("the UWSDT declined lineage extraction")?;
            let plan = any_plans[i].plan();
            if is_safe_shape(plan) {
                tracer
                    .span(0, "conf.safe", label, |_| {
                        safe_probabilities(&lineage, plan)
                    })
                    .map_err(err("conf.safe"))?;
            }
            let output = tracer
                .span(0, "conf.eval", label, |_| evaluate_lineage(&lineage, plan))
                .map_err(err("conf.eval"))?;
            tracer
                .span(0, "conf.compile", label, |_| {
                    let mut compiler = DtreeCompiler::new(lineage.vars());
                    output
                        .dnfs()
                        .values()
                        .try_for_each(|dnf| compiler.probability(dnf).map(drop))
                })
                .map_err(err("conf.compile"))?;
        }
    }
    out.set("uwsdt.exec_us", tracer.median("uwsdt.exec")?);
    let extract = tracer.median("conf.extract")?;
    let confidence = tracer.median("conf.confidence")?;
    out.set("conf.extract_us", extract);
    out.set("conf.safe_us", tracer.median("conf.safe")?);
    out.set("conf.eval_us", tracer.median("conf.eval")?);
    out.set("conf.compile_us", tracer.median("conf.compile")?);
    out.set("conf.over_exec", confidence / tracer.median("conf.exec")?);
    let stats = any.stats();
    out.set("conf.tier_safe", stats.conf_safe as f64);
    out.set("conf.tier_compiled", stats.conf_compiled as f64);
    out.set("conf.tier_exact", stats.conf_exact as f64);
    findings.push(format!(
        "(d) conf.extract_us = {:.1} ms of {:.1} ms UWSDT confidence at {} tuples, share {:.2} \
         (seed: 87-93 of 112-135 ms) -> {}",
        extract / 1e3,
        confidence / 1e3,
        sizes.census,
        extract / confidence,
        direction(extract / confidence > 0.5)
    ));
    Ok(())
}

/// The `wsd_small` mix for [`CORE_OPS`] requests in one session: the first
/// and last execution of each plan.
fn core(
    sizes: Sizes,
    seed: u64,
    tracer: &Tracer,
    out: &mut Outcome,
    findings: &mut Vec<String>,
) -> Result<(), String> {
    let wsd = CensusScenario::new(sizes.core, DENSITY, seed)
        .dirty_wsd()
        .map_err(err("census WSD"))?;
    let queries = inputs::wsd_queries();
    let mut session = Session::over(wsd);
    let plans = prepare_all(&mut session, &queries)?;
    for op in inputs::wsd_stream(seed).take(CORE_OPS) {
        match op {
            Op::Exec(q) => tracer
                .span(0, "core.exec", queries[q].0, |_| {
                    session.execute(&plans[q]).map(Iterator::count)
                })
                .map(drop),
            Op::Conf(q) => tracer
                .span(0, "core.conf", queries[q].0, |_| {
                    session.confidence(&plans[q])
                })
                .map(drop),
            Op::Write => unreachable!("the wsd_small mix has no writes"),
        }
        .map_err(err("core"))?;
    }
    let (mut firsts, mut lasts) = (Vec::new(), Vec::new());
    for (label, _) in &queries {
        let runs = tracer.durations_for("core.exec", label);
        if let (Some(first), Some(last)) = (runs.first(), runs.last()) {
            firsts.push(*first);
            lasts.push(*last);
        }
    }
    let (first, last) = (median(&firsts), median(&lasts));
    out.set("core.exec_first_us", first);
    out.set("core.exec_growth", last / first);
    findings.push(format!(
        "(c) core.exec_growth = {:.1}x over {CORE_OPS} requests at {} tuples, {:.1} ms -> {:.1} ms \
         (seed: ~19x, 12 ms -> 225 ms) -> {}",
        last / first,
        sizes.core,
        first / 1e3,
        last / 1e3,
        direction(last > first)
    ));
    Ok(())
}

/// The same inserts through `Session<AnyBackend>` and a durable session on
/// `MemVfs`, interleaved.
fn storage(db: &Database, tracer: &Tracer, out: &mut Outcome) -> Result<(), String> {
    let mut any = Session::over(db.clone());
    let mut durable = Session::create_durable_on(Box::new(MemVfs::new()), db.clone())
        .map_err(err("durable session"))?;
    for n in 0..WRITES {
        let update = insert(1, n);
        tracer
            .span(0, "storage.any_apply", "", |_| any.apply(&update))
            .map_err(err("storage.any_apply"))?;
        tracer
            .span(0, "storage.durable_apply", "", |_| durable.apply(&update))
            .map_err(err("storage.durable_apply"))?;
    }
    durable
        .close()
        .map_err(err("closing the durable session"))?;
    out.set(
        "storage.durable_over_any",
        tracer.median("storage.durable_apply")? / tracer.median("storage.any_apply")?,
    );
    Ok(())
}

/// The `service_mixed` stack: commits straight into the store, re-pins,
/// the wire against a session on a pinned snapshot, and a short served mix.
fn store_and_wire(
    sizes: Sizes,
    seed: u64,
    tracer: &Tracer,
    out: &mut Outcome,
    findings: &mut Vec<String>,
    tally: &mut Tally,
) -> Result<(), String> {
    let (mut service, _) = Service::build(sizes, seed, None)?;
    let store = service.store.clone();

    for n in 0..WRITES {
        tracer
            .span(0, "store.commit", "", |_| store.update(insert(2, n)))
            .map_err(err("store.commit"))?;
    }
    // Concurrent writers let the committer coalesce.
    let (before, syncs_before) = (store.stats(), service.vfs.sync_count());
    std::thread::scope(|scope| {
        let writers: Vec<_> = (0..CLIENTS as i64)
            .map(|w| {
                let store = &store;
                scope.spawn(move || {
                    (0..WRITES).try_for_each(|n| store.update(insert(3 + w, n)).map(drop))
                })
            })
            .collect();
        writers
            .into_iter()
            .try_for_each(|h| h.join().expect("a writer thread panicked"))
    })
    .map_err(err("concurrent commits"))?;
    let after = store.stats();
    let updates = (after.batched_updates - before.batched_updates) as f64;
    out.set(
        "store.mean_batch",
        updates / (after.commit_batches - before.commit_batches) as f64,
    );
    out.set(
        "storage.syncs_per_update",
        (service.vfs.sync_count() - syncs_before) as f64 / updates,
    );
    out.set("store.commit_us", tracer.median("store.commit")?);

    let queries = inputs::paper_queries();
    let labels: Vec<&'static str> = queries.iter().map(|(l, _)| *l).collect();
    for _ in 0..REPS {
        tracer
            .span(0, "store.repin", "", |_| {
                let snapshot = store.snapshot();
                let mut session = Session::new(snapshot.backend.clone());
                prepare_all(&mut session, &queries).map(drop)
            })
            .map_err(err("store.repin"))?;
    }
    out.set("store.repin_us", tracer.median("store.repin")?);

    // The wire against a session on a pinned snapshot, same plans.
    let snapshot = store.snapshot();
    let mut pinned = Session::new(snapshot.backend.clone());
    let pinned_plans = prepare_all(&mut pinned, &queries)?;
    let (client, plans) = &mut service.clients[0];
    let (bytes_before, _) = client.wire_bytes();
    let mut rows = 0;
    for _ in 0..WIRE_REPS {
        for (i, label) in labels.iter().enumerate() {
            let served = tracer
                .span(0, "wire.exec", label, |_| client.execute(&plans[i]))
                .map_err(err("wire.exec"))?;
            let local = tracer
                .span(0, "wire.session_exec", label, |_| {
                    pinned.execute(&pinned_plans[i]).map(Iterator::count)
                })
                .map_err(err("wire.session_exec"))?;
            tally.check(served.len() == local);
            rows += served.len();
        }
    }
    drop(snapshot);
    out.set("wire.exec_us", tracer.median("wire.exec")?);
    out.set(
        "wire.bytes_per_row",
        (client.wire_bytes().0 - bytes_before) as f64 / rows as f64,
    );
    let (over_session, _) = ratio_by_query(tracer, "wire.exec", "wire.session_exec", &labels);
    out.set("wire.over_session", over_session);

    // A short served mix: re-pins per read, and the served read latency.
    let pins_before = store.stats().snapshots_pinned;
    let streams = (0..CLIENTS)
        .map(|c| Workload::ServiceMixed.stream(seed, c))
        .collect();
    let runs = service.serve(streams, None, &|run, _| run.ops >= SERVED_OPS);
    let repins = store.stats().snapshots_pinned - pins_before;
    let mut served = Tally::default();
    let mut rate = 0.0;
    for run in runs {
        rate += run.ops as f64 / run.busy.as_secs_f64();
        served.absorb(run.tally);
    }
    let reads = served.count(inputs::Kind::Exec);
    out.set("store.repins_per_read", repins as f64 / reads as f64);
    let read_p50 = median(&served.samples[&inputs::Kind::Exec]);
    tally.absorb(served);

    let stats = service.shutdown()?;
    out.set(
        "storage.wal_bytes_per_update",
        stats.wal_bytes as f64 / store.stats().batched_updates as f64,
    );
    findings.push(format!(
        "(b) wire.over_session = {over_session:.1}x; served mix with {CLIENTS} clients {rate:.1} ops/s, \
         read p50 {:.1} ms (seed: ~40x; 21.5-21.7 ops/s, read p50 88 ms) -> {}",
        read_p50 / 1e3,
        direction(over_session > 1.0)
    ));
    Ok(())
}

/// The `census_embedded` mix on a plain and an observed session: each block
/// of requests runs on both, the order alternating; the median of the
/// per-block ratios.
fn observability(
    db: &Database,
    seed: u64,
    tracer: &Tracer,
    out: &mut Outcome,
) -> Result<(), String> {
    let queries = inputs::embedded_queries();
    let mut plain = Session::over(db.clone());
    let mut observed = Session::over(db.clone());
    observed.set_observer(Arc::new(Observer::new()));
    let plain_plans = prepare_all(&mut plain, &queries)?;
    let observed_plans = prepare_all(&mut observed, &queries)?;
    let mut stream = inputs::embedded_stream(seed);
    let run_block = |session: &mut Session<AnyBackend>, plans: &[Prepared], ops: &[Op]| {
        ops.iter().try_for_each(|op| match *op {
            Op::Exec(q) => session.execute(&plans[q]).map(|rows| {
                rows.count();
            }),
            Op::Conf(q) => session.confidence(&plans[q]).map(drop),
            Op::Write => unreachable!("the census_embedded mix has no writes"),
        })
    };
    let mut ratios = Vec::new();
    for block in 0..OBS_BLOCKS {
        let ops: Vec<Op> = stream.by_ref().take(OBS_BLOCK).collect();
        let mut times = [0.0; 2];
        for turn in 0..2 {
            let observe = (block + turn) % 2 == 1;
            let started = Instant::now();
            if observe {
                tracer.span(0, "obs.observed", "", |_| {
                    run_block(&mut observed, &observed_plans, &ops)
                })
            } else {
                tracer.span(0, "obs.plain", "", |_| {
                    run_block(&mut plain, &plain_plans, &ops)
                })
            }
            .map_err(err("obs"))?;
            times[usize::from(observe)] = started.elapsed().as_secs_f64();
        }
        ratios.push(times[1] / times[0]);
    }
    out.set("obs.observed_over_plain", median(&ratios));
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::PER_LAYER;

    #[test]
    fn the_traced_run_reports_every_per_layer_metric() {
        let sizes = Sizes {
            census: 300,
            wsd: 4,
            core: 4,
        };
        let outcome = run(Workload::Embedded, sizes, 3, Duration::from_millis(300)).unwrap();
        assert_eq!(outcome.failed, 0);
        assert!(outcome.attempted > 0);
        outcome.json(PER_LAYER).unwrap();
    }
}
