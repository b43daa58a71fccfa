//! Durability end to end: open a durable session on the census WSD, apply
//! updates through the write-ahead log, kill the process mid-flight (no
//! close, plus a simulated torn WAL tail), recover, and verify the tuple
//! confidences are bit-for-bit unchanged.
//!
//! Run with: `cargo run --example durable_session -p maybms [store-dir]`
//! (the store defaults to `target/durable-session-demo`).

use maybms::prelude::*;
use maybms::{q, Session, UpdateExpr};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let dir = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "target/durable-session-demo".to_string());
    let _ = std::fs::remove_dir_all(&dir);

    // --------------------------------------------------------------
    // 1. First run: initialize the store and apply logged updates.
    // --------------------------------------------------------------
    let wsd = maybms::core::wsd::example_census_wsd();
    let mut session = Session::create_durable(&dir, wsd)?;
    println!("store initialized at {dir} (snapshot generation 0)");

    session.apply(&UpdateExpr::insert(
        "R",
        Tuple::from_iter([Value::int(999), Value::text("Davis"), Value::int(2)]),
    ))?;
    let mass = session.condition(&[Dependency::Egd(EqualityGeneratingDependency::implies(
        "R",
        "S",
        785i64,
        "M",
        CmpOp::Eq,
        1i64,
    ))])?;
    println!("conditioned on S=785 ⇒ M=1, surviving mass P(ψ) = {mass:.4}");

    let married = session.prepare(q("R").select(Predicate::eq_const("M", 1i64)).project(["N"]))?;
    let before = session.confidence(&married)?;
    println!("\nconfidences before the crash:");
    for (tuple, conf) in &before {
        println!("  {tuple}  conf = {conf:.6}");
    }
    println!("session stats: {}", session.stats());
    let wal = session.backend().stats();
    println!(
        "write-ahead log: {} record(s), {} byte(s) since the last checkpoint",
        wal.wal_records, wal.wal_bytes
    );

    // --------------------------------------------------------------
    // 2. Crash: drop the session without closing, then tear the WAL
    //    tail as a power cut mid-append would.
    // --------------------------------------------------------------
    drop(session);
    let wal_path = std::path::Path::new(&dir).join(maybms::storage::wal::WAL_FILE);
    let mut wal_bytes = std::fs::read(&wal_path)?;
    wal_bytes.extend_from_slice(&[0x42, 0x00, 0x13, 0x37]); // a torn, half-written record
    std::fs::write(&wal_path, &wal_bytes)?;
    println!("\n-- crash -- (session dropped, WAL tail torn)");

    // --------------------------------------------------------------
    // 3. Recover: newest snapshot + WAL replay, torn tail truncated.
    // --------------------------------------------------------------
    let mut session = Session::open_durable(&dir)?;
    let durability = session.backend().stats();
    println!(
        "recovered: replayed {} WAL record(s), truncated {} torn byte(s)",
        durability.recovered_records, durability.torn_bytes_truncated
    );

    let married = session.prepare(q("R").select(Predicate::eq_const("M", 1i64)).project(["N"]))?;
    let after = session.confidence(&married)?;
    println!("\nconfidences after recovery:");
    for (tuple, conf) in &after {
        println!("  {tuple}  conf = {conf:.6}");
    }
    assert_eq!(before.len(), after.len(), "answer sets must agree");
    for ((t1, c1), (t2, c2)) in before.iter().zip(&after) {
        assert_eq!(t1, t2, "answer tuples must agree");
        assert_eq!(
            c1.to_bits(),
            c2.to_bits(),
            "confidence of {t1} must be bit-identical"
        );
    }
    println!("\nall confidences bit-identical across the crash ✓");

    // A checkpoint compacts the log for the next run.
    let generation = session.checkpoint()?;
    println!("checkpointed as snapshot generation {generation}");
    session.close()?;
    Ok(())
}
