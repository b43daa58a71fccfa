//! The benchmark's inputs, all derived from the `--seed` argument: the
//! census queries, the seeded request streams and the inserted tuples.

use maybms::census::{self, ATTRIBUTES, RELATION_NAME};
use maybms::relational::{CmpOp, Predicate, RaExpr, Tuple};

/// The explicitly join-shaped query of the `ablation_optimizer` bench:
/// married people working in a state, paired with PhD holders of the same
/// state.
pub fn qj() -> RaExpr {
    RaExpr::rel(RELATION_NAME)
        .select(Predicate::eq_const("MARITAL", 1i64))
        .project(vec!["POWSTATE"])
        .rename("POWSTATE", "P1")
        .product(
            RaExpr::rel(RELATION_NAME)
                .select(Predicate::eq_const("YEARSCH", 17i64))
                .project(vec!["POWSTATE"])
                .rename("POWSTATE", "P2"),
        )
        .select(Predicate::cmp_attr("P1", CmpOp::Eq, "P2"))
}

/// Q1–Q6 of Figure 29 plus QJ (`census_embedded`).
pub fn embedded_queries() -> Vec<(&'static str, RaExpr)> {
    let mut queries = census::all_queries();
    queries.push(("QJ", qj()));
    queries
}

/// Q1–Q6 of Figure 29 (`census_uncertain`, `service_mixed`).
pub fn paper_queries() -> Vec<(&'static str, RaExpr)> {
    census::all_queries()
}

/// Q1–Q4 and Q6 (`wsd_small`): Q5's join makes the §4 algebra compose
/// components pairwise, which did not finish within 300 s at 150 tuples.
pub fn wsd_queries() -> Vec<(&'static str, RaExpr)> {
    census::all_queries()
        .into_iter()
        .filter(|(label, _)| *label != "Q5")
        .collect()
}

/// The attribute that tags benchmark-inserted tuples; no query reads it.
pub const MARKER_ATTR: &str = "KITCHEN";

/// Inserted tuples carry `MARKER_BASE + id` in [`MARKER_ATTR`], above every
/// census code.
pub const MARKER_BASE: i64 = 1_000_000;

/// The code the inserted tuples carry in their first attribute, outside its
/// domain: a duplicate check comparing them with census rows then stops at
/// the first value for every row, so its cost does not depend on how many
/// rows happen to share a prefix with the inserted tuple.
pub const FIRST_ATTR_CODE: i64 = -1;

/// The census tuple the writes insert: the marker, [`FIRST_ATTR_CODE`] in
/// the first attribute (`CITIZEN`) and zero everywhere else.  `YEARSCH = 0`,
/// `FERTIL = 0`, `ENGLISH = 0` and `MARITAL = 0` fail a conjunct of every
/// query, so inserts never change a read's answer.
pub fn insert_tuple(id: i64) -> Tuple {
    Tuple::from_iter(ATTRIBUTES.iter().enumerate().map(|(i, attr)| {
        if attr.name == MARKER_ATTR {
            MARKER_BASE + id
        } else if i == 0 {
            FIRST_ATTR_CODE
        } else {
            0
        }
    }))
}

/// The query that finds every inserted tuple.
pub fn inserted() -> RaExpr {
    RaExpr::rel(RELATION_NAME).select(Predicate::cmp_const(MARKER_ATTR, CmpOp::Ge, MARKER_BASE))
}

/// SplitMix64: a small seeded generator, so a request stream depends on the
/// seed alone.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform draw from `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// One request of a workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Op {
    /// Stream every possible answer of prepared query `i`.
    Exec(usize),
    /// `confidence` on prepared query `i`.
    Conf(usize),
    /// Insert one tuple and wait for the acknowledgement.
    Write,
}

/// The operation types the end-to-end latencies are reported for.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Kind {
    Exec,
    Conf,
    Write,
}

impl Op {
    pub fn kind(self) -> Kind {
        match self {
            Op::Exec(_) => Kind::Exec,
            Op::Conf(_) => Kind::Conf,
            Op::Write => Kind::Write,
        }
    }
}

/// An endless seeded draw from a deck that holds every request of the mix in
/// its exact share; the deck is reshuffled each time it runs out, so the
/// mix never drifts from its stated proportions however short the run.
#[derive(Clone, Debug)]
pub struct Deck {
    cards: Vec<Op>,
    next: usize,
    rng: Rng,
}

impl Deck {
    pub fn new(cards: Vec<Op>, seed: u64) -> Deck {
        let len = cards.len();
        Deck {
            cards,
            next: len,
            rng: Rng::new(seed),
        }
    }
}

impl Iterator for Deck {
    type Item = Op;

    fn next(&mut self) -> Option<Op> {
        if self.next == self.cards.len() {
            for i in (1..self.cards.len()).rev() {
                let j = self.rng.below(i + 1);
                self.cards.swap(i, j);
            }
            self.next = 0;
        }
        self.next += 1;
        self.cards.get(self.next - 1).copied()
    }
}

/// Two decks taking turns (`wsd_small` alternates execute and confidence).
#[derive(Clone, Debug)]
pub struct Alternate {
    decks: [Deck; 2],
    turn: usize,
}

impl Iterator for Alternate {
    type Item = Op;

    fn next(&mut self) -> Option<Op> {
        let op = self.decks[self.turn].next();
        self.turn = 1 - self.turn;
        op
    }
}

fn cards(queries: usize, make: impl Fn(usize) -> Vec<Op>) -> Vec<Op> {
    (0..queries).flat_map(make).collect()
}

/// Derive an independent stream seed from the workload seed.
pub fn stream_seed(seed: u64, stream: u64) -> u64 {
    Rng::new(seed ^ 0xB5AD_4ECE_DA1C_E2A9 ^ stream.wrapping_mul(0x2545_F491_4F6C_DD1D)).next_u64()
}

/// `census_embedded`: 85% execute, 15% confidence over Q1–Q6 and QJ.
pub fn embedded_stream(seed: u64) -> Deck {
    let queries = embedded_queries().len();
    let deck = cards(queries, |q| {
        let mut v = vec![Op::Exec(q); 17];
        v.extend([Op::Conf(q); 3]);
        v
    });
    Deck::new(deck, stream_seed(seed, 0))
}

/// `census_uncertain`: 50% execute, 50% confidence over Q1–Q6.
pub fn uncertain_stream(seed: u64) -> Deck {
    let deck = cards(paper_queries().len(), |q| vec![Op::Exec(q), Op::Conf(q)]);
    Deck::new(deck, stream_seed(seed, 0))
}

/// `wsd_small`: execute and confidence in turn over Q1–Q4 and Q6.
pub fn wsd_stream(seed: u64) -> Alternate {
    let queries = wsd_queries().len();
    Alternate {
        decks: [
            Deck::new(cards(queries, |q| vec![Op::Exec(q)]), stream_seed(seed, 0)),
            Deck::new(cards(queries, |q| vec![Op::Conf(q)]), stream_seed(seed, 1)),
        ],
        turn: 0,
    }
}

/// `service_mixed`, one stream per client: 80% execute over Q1–Q6, 20%
/// inserts.
pub fn service_stream(seed: u64, client: usize) -> Deck {
    let deck = cards(paper_queries().len(), |q| {
        vec![
            Op::Exec(q),
            Op::Exec(q),
            Op::Exec(q),
            Op::Exec(q),
            Op::Write,
        ]
    });
    Deck::new(deck, stream_seed(seed, 1 + client as u64))
}

/// An answer as the set of its possible tuples (sorted, duplicates gone).
pub fn answer_set(rows: impl IntoIterator<Item = Tuple>) -> Vec<Tuple> {
    let mut rows: Vec<Tuple> = rows.into_iter().collect();
    rows.sort();
    rows.dedup();
    rows
}

/// Confidences keyed by tuple with their exact bit patterns, so a check
/// demands bit-identical numbers.
pub fn confidence_bits(rows: Vec<(Tuple, f64)>) -> Vec<(Tuple, u64)> {
    let mut rows: Vec<(Tuple, u64)> = rows.into_iter().map(|(t, p)| (t, p.to_bits())).collect();
    rows.sort();
    rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use maybms::relational::{evaluate_set, Database, Relation};

    #[test]
    fn decks_keep_the_stated_mix_and_depend_on_the_seed_alone() {
        let first: Vec<Op> = embedded_stream(7).take(280).collect();
        assert_eq!(first, embedded_stream(7).take(280).collect::<Vec<_>>());
        assert_ne!(first, embedded_stream(8).take(280).collect::<Vec<_>>());
        let confs = first.iter().filter(|op| op.kind() == Kind::Conf).count();
        assert_eq!(confs, 2 * 7 * 3);
        let writes = service_stream(7, 0)
            .take(300)
            .filter(|op| *op == Op::Write)
            .count();
        assert_eq!(writes, 60);
        let kinds: Vec<Kind> = wsd_stream(7).take(4).map(Op::kind).collect();
        assert_eq!(kinds, [Kind::Exec, Kind::Conf, Kind::Exec, Kind::Conf]);
    }

    #[test]
    fn inserted_tuples_match_no_query() {
        let mut base = census::generate_census(50, 3);
        let before: Vec<Vec<Tuple>> = {
            let mut db = Database::new();
            db.insert_relation(base.clone());
            embedded_queries()
                .iter()
                .map(|(_, q)| answer_set(evaluate_set(&db, q).unwrap().into_rows()))
                .collect()
        };
        for id in 0..5 {
            base.push(insert_tuple(id)).unwrap();
        }
        let mut db = Database::new();
        db.insert_relation(Relation::clone(&base));
        for ((label, q), expected) in embedded_queries().iter().zip(before) {
            assert_eq!(
                answer_set(evaluate_set(&db, q).unwrap().into_rows()),
                expected,
                "{label} sees an inserted tuple"
            );
        }
        assert_eq!(evaluate_set(&db, &inserted()).unwrap().len(), 5);
    }
}
