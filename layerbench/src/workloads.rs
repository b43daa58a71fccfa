//! The four end-to-end workloads: set-up, the closed loops, the answer and
//! durability checks, and the end-to-end metrics.
//!
//! Every workload reports every end-to-end metric.  The closed loop issues
//! the workload's own mix; the operation types the mix leaves out run
//! afterwards as a probe of [`PROBE_OPS`] requests on the same stack, so
//! they cannot disturb the loop (an update would evict prepared plans and,
//! on `wsd_small`, drop the scratch results whose growth the loop
//! measures).

use std::collections::BTreeSet;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use maybms::census::{CensusScenario, RELATION_NAME};
use maybms::relational::{evaluate_set, RaExpr, Tuple, Value};
use maybms::storage::{DurabilityStats, MemVfs, SyncPolicy};
use maybms::{AnyBackend, Prepared, Session, SessionBackend, UpdateExpr};
use ws_server::{Client, ConcurrentStore, RemotePlan, ServerHandle};

use crate::inputs::{self, answer_set, confidence_bits, Kind, Op};
use crate::report::{median, peak_rss_mb, Outcome, Tally};
use crate::trace::{self, Replayed, Tracer};

/// Or-set density of the uncertain census data (0.1%).
pub const DENSITY: f64 = 0.001;

/// Set-ups per run: at least this many, and more until they add up to
/// [`SETUP_MIN_TIME`]; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 5;
pub const SETUP_MIN_TIME: Duration = Duration::from_millis(500);

/// Whether another set-up is due.
fn more_setups(setups: &[f64]) -> bool {
    setups.len() < SETUP_REPEATS || setups.iter().sum::<f64>() < SETUP_MIN_TIME.as_secs_f64()
}

/// Successful samples each operation type needs for its p90 to have ten
/// samples beyond it.
pub const MIN_SAMPLES: usize = 100;

/// Requests in a probe of an operation type the closed loop leaves out.
pub const PROBE_OPS: usize = 120;

/// A closed loop runs for at least `--seconds` and on until every operation
/// type of its mix has [`MIN_SAMPLES`]; it stops here regardless, and the
/// run then fails on the missing samples.
pub const HARD_CAP: Duration = Duration::from_secs(120);

/// `service_mixed` client connections (the benchmark host has 2 cores).
pub const CLIENTS: usize = 2;

/// `service_mixed`'s flush policy, the same on every run.
pub const GROUP_COMMIT: SyncPolicy = SyncPolicy::GroupCommit {
    max_batch: 64,
    max_wait: Duration::from_millis(1),
};

/// Input sizes: [`BENCH_SIZES`] for the benchmark, smaller ones in tests.
#[derive(Clone, Copy, Debug)]
pub struct Sizes {
    /// Tuples of the one-world and UWSDT census data.
    pub census: usize,
    /// Tuples of the `wsd_small` WSD.
    pub wsd: usize,
    /// Tuples of the WSD whose growth the traced run measures.
    pub core: usize,
}

/// `wsd_small` holds 12 tuples: its 200 requests, the fewest that give
/// both operation types a p90, take about 25 s, while at 20 tuples they take
/// 40–72 s depending on the seed, more than the benchmark's run budget
/// allows.  The traced run measures the growth at 20 tuples.
pub const BENCH_SIZES: Sizes = Sizes {
    census: 10_000,
    wsd: 12,
    core: 20,
};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    Embedded,
    Uncertain,
    WsdSmall,
    ServiceMixed,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::Embedded,
        Workload::Uncertain,
        Workload::WsdSmall,
        Workload::ServiceMixed,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Embedded => "census_embedded",
            Workload::Uncertain => "census_uncertain",
            Workload::WsdSmall => "wsd_small",
            Workload::ServiceMixed => "service_mixed",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The seeded request stream of the closed loop (one client's stream
    /// for `service_mixed`).
    pub fn stream(self, seed: u64, client: usize) -> Box<dyn Iterator<Item = Op> + Send> {
        match self {
            Workload::Embedded => Box::new(inputs::embedded_stream(seed)),
            Workload::Uncertain => Box::new(inputs::uncertain_stream(seed)),
            Workload::WsdSmall => Box::new(inputs::wsd_stream(seed)),
            Workload::ServiceMixed => Box::new(inputs::service_stream(seed, client)),
        }
    }

    /// The operation types of the closed loop's mix.
    pub fn loop_kinds(self) -> &'static [Kind] {
        match self {
            Workload::ServiceMixed => &[Kind::Exec, Kind::Write],
            _ => &[Kind::Exec, Kind::Conf],
        }
    }

    pub fn queries(self) -> Vec<(&'static str, RaExpr)> {
        match self {
            Workload::Embedded => inputs::embedded_queries(),
            Workload::Uncertain | Workload::ServiceMixed => inputs::paper_queries(),
            Workload::WsdSmall => inputs::wsd_queries(),
        }
    }
}

/// Prefix an error with what was being done.
pub fn err<E: std::fmt::Display>(context: &'static str) -> impl Fn(E) -> String {
    move |e| format!("{context}: {e}")
}

/// Whether a closed loop goes on: until `budget` has passed and `enough`
/// holds, never past [`HARD_CAP`].
pub fn keep_going(elapsed: Duration, budget: Duration, enough: impl Fn() -> bool) -> bool {
    elapsed < HARD_CAP && (elapsed < budget || !enough())
}

/// Reference answers (possible-tuple sets) and confidences (bit patterns),
/// one per query.
#[derive(Default)]
pub struct References {
    pub answers: Vec<Vec<Tuple>>,
    pub confidences: Vec<Vec<(Tuple, u64)>>,
}

impl References {
    /// One-world data: answers from the reference evaluator
    /// `evaluate_set`, confidences from a typed `Session<Database>`.
    /// Otherwise a fresh typed session over the same representation
    /// answers both, computed before the workload session has run anything.
    pub fn of(
        backend: &AnyBackend,
        queries: &[(&'static str, RaExpr)],
    ) -> Result<References, String> {
        match backend {
            AnyBackend::Db(db) => {
                let answers = queries
                    .iter()
                    .map(|(label, q)| {
                        evaluate_set(db, q)
                            .map(|r| answer_set(r.into_rows()))
                            .map_err(|e| format!("reference answer of {label}: {e}"))
                    })
                    .collect::<Result<_, _>>()?;
                let typed = Self::typed(Session::new(db.clone()), queries)?;
                Ok(References {
                    answers,
                    confidences: typed.confidences,
                })
            }
            AnyBackend::Uwsdt(u) => Self::typed(Session::new(u.clone()), queries),
            AnyBackend::Wsd(w) => Self::typed(Session::new(w.clone()), queries),
            other => Err(format!(
                "no reference for a {} backend",
                other.backend_name()
            )),
        }
    }

    fn typed<B: SessionBackend>(
        mut session: Session<B>,
        queries: &[(&'static str, RaExpr)],
    ) -> Result<References, String>
    where
        B::Error: Into<maybms::Error>,
    {
        let mut refs = References {
            answers: Vec::new(),
            confidences: Vec::new(),
        };
        for (label, q) in queries {
            let plan = session.prepare(q.clone()).map_err(err(label))?;
            let rows: Vec<Tuple> = session.execute(&plan).map_err(err(label))?.collect();
            refs.answers.push(answer_set(rows));
            let conf = session.confidence(&plan).map_err(err(label))?;
            refs.confidences.push(confidence_bits(conf));
        }
        Ok(refs)
    }
}

/// A `Session::over` workload: the session, its prepared plans and the
/// references its answers are checked against.
pub struct SessionStack {
    pub session: Session<AnyBackend>,
    pub plans: Vec<Prepared>,
    pub labels: Vec<&'static str>,
    refs: References,
    inserted: i64,
}

impl SessionStack {
    /// Build the stack; the returned duration is the set-up time (data
    /// generation, load, chase, session, prepared plans).  The references
    /// are computed after the clock stops, unless `refs` hands over those of
    /// an earlier build from the same seed.
    pub fn build(
        workload: Workload,
        sizes: Sizes,
        seed: u64,
        refs: Option<References>,
    ) -> Result<(SessionStack, Duration), String> {
        let started = Instant::now();
        let queries = workload.queries();
        let backend = match workload {
            Workload::Embedded => {
                AnyBackend::from(CensusScenario::new(sizes.census, 0.0, seed).one_world())
            }
            Workload::Uncertain => AnyBackend::from(
                CensusScenario::new(sizes.census, DENSITY, seed)
                    .chased_uwsdt()
                    .map_err(|e| format!("chasing the census UWSDT: {e}"))?,
            ),
            Workload::WsdSmall => AnyBackend::from(
                CensusScenario::new(sizes.wsd, DENSITY, seed)
                    .dirty_wsd()
                    .map_err(|e| format!("building the census WSD: {e}"))?,
            ),
            Workload::ServiceMixed => return Err("service_mixed is not a session workload".into()),
        };
        let mut session = Session::over(backend);
        let plans = queries
            .iter()
            .map(|(label, q)| session.prepare(q.clone()).map_err(err(label)))
            .collect::<Result<Vec<_>, _>>()?;
        let setup = started.elapsed();
        let refs = match refs {
            Some(refs) => refs,
            None => References::of(session.backend(), &queries)?,
        };
        Ok((
            SessionStack {
                session,
                plans,
                labels: queries.iter().map(|(label, _)| *label).collect(),
                refs,
                inserted: 0,
            },
            setup,
        ))
    }

    /// Serve one request: the latency and whether it succeeded with the
    /// reference answer.  The check runs after the clock stops.
    pub fn step(&mut self, op: Op) -> (Duration, bool) {
        let started = Instant::now();
        match op {
            Op::Exec(q) => {
                let rows = self
                    .session
                    .execute(&self.plans[q])
                    .map(|rows| rows.collect::<Vec<Tuple>>());
                let latency = started.elapsed();
                (
                    latency,
                    rows.is_ok_and(|rows| answer_set(rows) == self.refs.answers[q]),
                )
            }
            Op::Conf(q) => {
                let rows = self.session.confidence(&self.plans[q]);
                let latency = started.elapsed();
                (
                    latency,
                    rows.is_ok_and(|rows| confidence_bits(rows) == self.refs.confidences[q]),
                )
            }
            Op::Write => {
                let update = UpdateExpr::insert(RELATION_NAME, inputs::insert_tuple(self.inserted));
                let mass = self.session.apply(&update);
                let latency = started.elapsed();
                let ok = mass.is_ok_and(|m| m == 1.0);
                self.inserted += i64::from(ok);
                (latency, ok)
            }
        }
    }

    /// Acknowledged inserts the session cannot find again.
    pub fn missing_inserts(&mut self) -> Result<u64, String> {
        let plan = self
            .session
            .prepare(inputs::inserted())
            .map_err(err("inserted tuples"))?;
        let found = answer_set(
            self.session
                .execute(&plan)
                .map_err(err("inserted tuples"))?,
        )
        .len();
        Ok((self.inserted as u64).abs_diff(found as u64))
    }
}

/// Run `workload` for `budget` and report its end-to-end metrics.
pub fn run(
    workload: Workload,
    sizes: Sizes,
    seed: u64,
    budget: Duration,
) -> Result<Outcome, String> {
    match workload {
        Workload::ServiceMixed => run_service(sizes, seed, budget),
        _ => run_session(workload, sizes, seed, budget),
    }
}

fn run_session(
    workload: Workload,
    sizes: Sizes,
    seed: u64,
    budget: Duration,
) -> Result<Outcome, String> {
    // The instance the loop runs on is built first, on a fresh heap, so its
    // memory layout does not depend on the set-ups timed after it.
    let (mut stack, first) = SessionStack::build(workload, sizes, seed, None)?;
    let mut setups = vec![first.as_secs_f64()];
    while more_setups(&setups) {
        let refs = std::mem::take(&mut stack.refs);
        let (extra, setup) = SessionStack::build(workload, sizes, seed, Some(refs))?;
        setups.push(setup.as_secs_f64());
        stack.refs = extra.refs;
    }

    let mut tally = Tally::default();
    let mut stream = workload.stream(seed, 0);
    let (mut ops, mut busy) = (0u64, Duration::ZERO);
    let started = Instant::now();
    while keep_going(started.elapsed(), budget, || {
        workload
            .loop_kinds()
            .iter()
            .all(|&k| tally.count(k) >= MIN_SAMPLES)
    }) {
        let op = stream.next().expect("request decks are endless");
        let (latency, ok) = stack.step(op);
        tally.record(op.kind(), latency, ok);
        ops += 1;
        busy += latency;
    }
    let ops_per_s = ops as f64 / busy.as_secs_f64();

    for _ in 0..PROBE_OPS {
        let (latency, ok) = stack.step(Op::Write);
        tally.record(Kind::Write, latency, ok);
    }
    tally.failed += stack.missing_inserts()?;
    println!("# {}: {}", workload.name(), stack.session.summary());
    end_to_end(&setups, &tally, ops_per_s)
}

fn end_to_end(setups: &[f64], tally: &Tally, ops_per_s: f64) -> Result<Outcome, String> {
    let mut out = Outcome {
        attempted: tally.attempted,
        failed: tally.failed,
        metrics: Vec::new(),
    };
    out.set("setup_s", median(setups));
    for (kind, p50, p90) in [
        (Kind::Exec, "exec_p50_us", "exec_p90_us"),
        (Kind::Conf, "conf_p50_us", "conf_p90_us"),
        (Kind::Write, "write_p50_us", "write_p90_us"),
    ] {
        let (a, b) = tally.latency(kind)?;
        println!(
            "# {kind:?}: {} samples, {}",
            tally.count(kind),
            tally.deciles(kind)
        );
        out.set(p50, a);
        out.set(p90, b);
    }
    out.set("ops_per_s", ops_per_s);
    out.set("peak_rss_mb", peak_rss_mb()?);
    Ok(out)
}

/// `service_mixed`: a `ConcurrentStore<AnyBackend>` on `MemVfs` served by
/// `ws_server::spawn` over loopback, with [`CLIENTS`] connections.
pub struct Service {
    // Declared first so the connections close before the server joins its
    // connection threads on drop.
    pub clients: Vec<(Client, Vec<RemotePlan>)>,
    server: Option<ServerHandle>,
    pub store: ConcurrentStore<AnyBackend>,
    pub vfs: MemVfs,
    pub refs: References,
    pub initial_rows: usize,
}

/// One client's share of a served phase.
#[derive(Debug, Default)]
pub struct ClientRun {
    pub tally: Tally,
    pub ops: u64,
    pub busy: Duration,
    pub acked: Vec<i64>,
    /// Every request with its wall time, when the phase is traced.
    pub log: Vec<Replayed>,
}

/// Successful requests of every client so far, by operation type.
#[derive(Debug, Default)]
pub struct Progress {
    exec: AtomicUsize,
    conf: AtomicUsize,
    write: AtomicUsize,
}

impl Progress {
    fn counter(&self, kind: Kind) -> &AtomicUsize {
        match kind {
            Kind::Exec => &self.exec,
            Kind::Conf => &self.conf,
            Kind::Write => &self.write,
        }
    }

    pub fn count(&self, kind: Kind) -> usize {
        self.counter(kind).load(Ordering::Relaxed)
    }
}

impl Service {
    /// Build the service; the returned duration is the set-up time (data
    /// generation, store creation, server start, connections, prepared
    /// plans).  The references are computed after the clock stops, unless
    /// `refs` hands over those of an earlier build from the same seed.
    pub fn build(
        sizes: Sizes,
        seed: u64,
        refs: Option<References>,
    ) -> Result<(Service, Duration), String> {
        let started = Instant::now();
        let db = CensusScenario::new(sizes.census, 0.0, seed).one_world();
        let vfs = MemVfs::new();
        let store =
            ConcurrentStore::create(Box::new(vfs.clone()), AnyBackend::from(db), GROUP_COMMIT)
                .map_err(|e| format!("creating the store: {e}"))?;
        let server = ws_server::spawn("127.0.0.1:0", store.clone())
            .map_err(|e| format!("starting the server: {e}"))?;
        let mut clients = Vec::new();
        for _ in 0..CLIENTS {
            let mut client =
                Client::connect(server.addr()).map_err(|e| format!("connecting: {e}"))?;
            let plans = inputs::paper_queries()
                .into_iter()
                .map(|(label, q)| client.prepare(q).map_err(|e| format!("{label}: {e}")))
                .collect::<Result<Vec<_>, _>>()?;
            clients.push((client, plans));
        }
        let setup = started.elapsed();
        let snapshot = store.snapshot();
        let refs = match refs {
            Some(refs) => refs,
            None => References::of(&snapshot.backend, &inputs::paper_queries())?,
        };
        let initial_rows = relation_rows(&snapshot.backend)?.len();
        drop(snapshot);
        Ok((
            Service {
                clients,
                server: Some(server),
                store,
                vfs,
                refs,
                initial_rows,
            },
            setup,
        ))
    }

    /// Run one closed loop per client, each over its own request stream,
    /// until `stop` says so.  With a tracer, every other pair of requests
    /// runs inside a span and every request is logged.
    pub fn serve<S>(
        &mut self,
        streams: Vec<S>,
        tracer: Option<&Tracer>,
        stop: &(dyn Fn(&ClientRun, &Progress) -> bool + Sync),
    ) -> Vec<ClientRun>
    where
        S: Iterator<Item = Op> + Send,
    {
        let progress = Progress::default();
        let refs = &self.refs;
        std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .clients
                .iter_mut()
                .zip(streams)
                .enumerate()
                .map(|(c, ((client, plans), mut stream))| {
                    let progress = &progress;
                    scope.spawn(move || {
                        let mut run = ClientRun::default();
                        while !stop(&run, progress) {
                            let op = stream.next().expect("request streams are endless");
                            let traced = tracer.filter(|_| trace::traced_turn(run.ops));
                            let started = Instant::now();
                            let mut step =
                                || served_step(client, plans, refs, op, c, &mut run.acked);
                            let (latency, ok) = match traced {
                                Some(tracer) => {
                                    tracer.span(0, trace::span_name(op), "", |_| step())
                                }
                                None => step(),
                            };
                            if tracer.is_some() {
                                run.log.push(Replayed {
                                    op,
                                    traced: traced.is_some(),
                                    wall: started.elapsed(),
                                });
                            }
                            run.tally.record(op.kind(), latency, ok);
                            run.ops += 1;
                            run.busy += latency;
                            if ok {
                                progress.counter(op.kind()).fetch_add(1, Ordering::Relaxed);
                            }
                        }
                        run
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("a client thread panicked"))
                .collect()
        })
    }

    /// Recover a copy of the medium as it stands and check every
    /// acknowledged insert is there and nothing else was added.  `MemVfs`
    /// keeps unflushed bytes, so this proves recovery, not power-cut loss.
    /// Returns the number of failed checks.
    pub fn durability_check(&self, acked: &[i64]) -> Result<u64, String> {
        let image = self.vfs.fork();
        let recovered = ConcurrentStore::<AnyBackend>::open(Box::new(image), GROUP_COMMIT)
            .map_err(|e| format!("recovering the forked medium: {e}"))?;
        let snapshot = recovered.snapshot();
        let relation = relation_rows(&snapshot.backend)?;
        let pos = relation
            .schema()
            .position(inputs::MARKER_ATTR)
            .ok_or("the census schema lost its marker attribute")?;
        let present: BTreeSet<i64> = relation
            .rows()
            .iter()
            .filter_map(|t| t.get(pos).and_then(Value::as_int))
            .filter(|&v| v >= inputs::MARKER_BASE)
            .collect();
        let missing = acked
            .iter()
            .filter(|&&id| !present.contains(&(inputs::MARKER_BASE + id)))
            .count() as u64;
        let expected_rows = self.initial_rows + acked.len();
        println!(
            "# durability: {} acknowledged inserts, {} missing after recovery, {} rows (expected {expected_rows})",
            acked.len(),
            missing,
            relation.len()
        );
        let count_wrong = u64::from(relation.len() != expected_rows);
        drop(snapshot);
        recovered
            .close()
            .map_err(|e| format!("closing the recovered store: {e}"))?;
        Ok(missing + count_wrong)
    }

    /// Close the connections, stop the server and the store's committer;
    /// returns the store's closing durability counters.
    pub fn shutdown(mut self) -> Result<DurabilityStats, String> {
        for (client, _) in self.clients.drain(..) {
            client
                .close()
                .map_err(|e| format!("closing a connection: {e}"))?;
        }
        if let Some(server) = self.server.take() {
            server
                .shutdown()
                .map_err(|e| format!("stopping the server: {e}"))?;
        }
        self.store
            .close()
            .map_err(|e| format!("closing the store: {e}"))
    }
}

fn relation_rows(backend: &AnyBackend) -> Result<&maybms::relational::Relation, String> {
    match backend {
        AnyBackend::Db(db) => db.relation(RELATION_NAME).map_err(|e| e.to_string()),
        other => Err(format!(
            "expected one-world data, found {}",
            other.backend_name()
        )),
    }
}

/// Serve one request over the wire: latency and correctness.  Client `c`
/// inserts ids `c * 10^7 + n`, recording each acknowledged one.
fn served_step(
    client: &mut Client,
    plans: &[RemotePlan],
    refs: &References,
    op: Op,
    c: usize,
    acked: &mut Vec<i64>,
) -> (Duration, bool) {
    let started = Instant::now();
    match op {
        Op::Exec(q) => {
            let rows = client.execute(&plans[q]);
            let latency = started.elapsed();
            (
                latency,
                rows.is_ok_and(|rows| answer_set(rows) == refs.answers[q]),
            )
        }
        Op::Conf(q) => {
            let rows = client.confidence(&plans[q]);
            let latency = started.elapsed();
            (
                latency,
                rows.is_ok_and(|rows| confidence_bits(rows) == refs.confidences[q]),
            )
        }
        Op::Write => {
            let id = c as i64 * 10_000_000 + acked.len() as i64;
            let mass = client.apply(&UpdateExpr::insert(RELATION_NAME, inputs::insert_tuple(id)));
            let latency = started.elapsed();
            let ok = mass.is_ok_and(|m| m == 1.0);
            if ok {
                acked.push(id);
            }
            (latency, ok)
        }
    }
}

/// Round-robin confidence requests, client `c` starting at query `c`.
pub fn confidence_probe(c: usize) -> impl Iterator<Item = Op> + Send {
    let queries = inputs::paper_queries().len();
    (c..).map(move |i| Op::Conf(i % queries))
}

fn run_service(sizes: Sizes, seed: u64, budget: Duration) -> Result<Outcome, String> {
    // As for the session workloads, the service the loop runs on is built
    // first and the set-ups timed after it are shut down again.
    let (mut service, first) = Service::build(sizes, seed, None)?;
    let mut setups = vec![first.as_secs_f64()];
    while more_setups(&setups) {
        let refs = std::mem::take(&mut service.refs);
        let (mut extra, setup) = Service::build(sizes, seed, Some(refs))?;
        setups.push(setup.as_secs_f64());
        service.refs = std::mem::take(&mut extra.refs);
        extra.shutdown()?;
    }

    let started = Instant::now();
    let streams = (0..CLIENTS)
        .map(|c| Workload::ServiceMixed.stream(seed, c))
        .collect();
    let runs = service.serve(streams, None, &|_, progress| {
        !keep_going(started.elapsed(), budget, || {
            progress.count(Kind::Exec) >= MIN_SAMPLES && progress.count(Kind::Write) >= MIN_SAMPLES
        })
    });
    let ops_per_s: f64 = runs
        .iter()
        .map(|r| r.ops as f64 / r.busy.as_secs_f64())
        .sum();
    let mut tally = Tally::default();
    let mut acked = Vec::new();
    for run in runs {
        tally.absorb(run.tally);
        acked.extend(run.acked);
    }
    let per_client = PROBE_OPS / CLIENTS;
    let probe = service.serve(
        (0..CLIENTS).map(confidence_probe).collect(),
        None,
        &|run, _| run.ops as usize >= per_client,
    );
    for run in probe {
        tally.absorb(run.tally);
    }
    tally.failed += service.durability_check(&acked)?;
    println!("# service_mixed: {:?}", service.store.stats());
    service.shutdown()?;
    end_to_end(&setups, &tally, ops_per_s)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::END_TO_END;

    const SMALL: Sizes = Sizes {
        census: 400,
        wsd: 4,
        core: 4,
    };

    #[test]
    fn every_workload_reports_every_end_to_end_metric_and_counts_each_attempt() {
        for workload in Workload::ALL {
            let outcome = run(workload, SMALL, 11, Duration::from_millis(200)).unwrap();
            assert_eq!(outcome.failed, 0, "{}", workload.name());
            // Loop samples of its two kinds plus the probe of the third.
            assert!(
                outcome.attempted >= (2 * MIN_SAMPLES + PROBE_OPS) as u64,
                "{}: {} attempted",
                workload.name(),
                outcome.attempted
            );
            let json = outcome.json(END_TO_END).unwrap();
            assert!(json.starts_with("{\"correct\": true"), "{json}");
        }
    }

    #[test]
    fn a_wrong_answer_is_a_failed_operation() {
        let (mut stack, _) = SessionStack::build(Workload::Embedded, SMALL, 5, None).unwrap();
        assert!(stack.step(Op::Exec(0)).1);
        stack.refs.answers[0].push(inputs::insert_tuple(-1));
        stack.refs.confidences[1].clear();
        assert!(!stack.step(Op::Exec(0)).1);
        assert!(!stack.step(Op::Conf(1)).1);
        assert!(stack.step(Op::Write).1);
        assert_eq!(stack.missing_inserts().unwrap(), 0);
    }
}
