//! Concurrent-session linearizability property (satellite of ISSUE 10).
//!
//! N client threads fire generated write plans at a running server. Every
//! acknowledged write carries the global commit sequence number the
//! pipeline assigned it. Replaying exactly the acknowledged operations,
//! in sequence order, through a fresh single-threaded embedded
//! [`Database`] oracle must reproduce the server's final state
//! byte-for-byte — i.e. the concurrent history is equivalent to *some*
//! serial one, and `seq` names it.

use ridl_brm::{DataType, Value};
use ridl_engine::{Database, Pred};
use ridl_obs::json::{obj, Json};
use ridl_relational::{Column, RelConstraintKind, RelSchema, Table};
use ridl_server::{Client, Server, ServerConfig};

use proptest::prelude::*;

fn sample_schema() -> RelSchema {
    let mut s = RelSchema::new("conf");
    let d = s.domain("D", DataType::Char(24));
    let paper = s.add_table(Table::new(
        "Paper",
        vec![
            Column::not_null("Paper_Id", d),
            Column::nullable("Program_Id", d),
        ],
    ));
    s.add_named(RelConstraintKind::PrimaryKey {
        table: paper,
        cols: vec![0],
    });
    s
}

/// One generated client operation. Shared keys (`S<k>`) deliberately
/// collide across threads so inserts race on the primary key and
/// update/delete interleave on the same rows.
#[derive(Clone, Debug)]
enum Op {
    InsertOwn(usize),
    InsertShared(usize),
    UpdateShared(usize, u8),
    DeleteShared(usize),
}

impl Op {
    fn request(&self, thread: usize) -> Json {
        let key = |op: &Op| match op {
            Op::InsertOwn(i) => format!("T{thread}-{i}"),
            Op::InsertShared(k) | Op::UpdateShared(k, _) | Op::DeleteShared(k) => {
                format!("S{k}")
            }
        };
        match self {
            Op::InsertOwn(_) | Op::InsertShared(_) => obj([
                ("cmd", Json::str("insert")),
                ("table", Json::str("Paper")),
                ("row", Json::Arr(vec![Json::str(key(self)), Json::Null])),
            ]),
            Op::UpdateShared(_, v) => obj([
                ("cmd", Json::str("update")),
                ("table", Json::str("Paper")),
                (
                    "where",
                    Json::Arr(vec![obj([
                        ("col", Json::str("Paper_Id")),
                        ("eq", Json::str(key(self))),
                    ])]),
                ),
                (
                    "set",
                    Json::Arr(vec![Json::Arr(vec![
                        Json::str("Program_Id"),
                        Json::str(format!("G{v}")),
                    ])]),
                ),
            ]),
            Op::DeleteShared(_) => obj([
                ("cmd", Json::str("delete")),
                ("table", Json::str("Paper")),
                (
                    "where",
                    Json::Arr(vec![obj([
                        ("col", Json::str("Paper_Id")),
                        ("eq", Json::str(key(self))),
                    ])]),
                ),
            ]),
        }
    }

    /// Applies this operation to the oracle. Only called for operations
    /// the server acknowledged, so failures here are verdicts: the
    /// server committed something the serial order rejects.
    fn apply(&self, thread: usize, oracle: &mut Database) -> Result<(), String> {
        let shared = |k: &usize| format!("S{k}");
        match self {
            Op::InsertOwn(i) => oracle
                .insert(
                    "Paper",
                    vec![Some(Value::str(format!("T{thread}-{i}"))), None],
                )
                .map(|_| ())
                .map_err(|e| e.to_string()),
            Op::InsertShared(k) => oracle
                .insert("Paper", vec![Some(Value::str(shared(k))), None])
                .map(|_| ())
                .map_err(|e| e.to_string()),
            Op::UpdateShared(k, v) => oracle
                .update_where(
                    "Paper",
                    &[Pred::Eq("Paper_Id".into(), Value::str(shared(k)))],
                    &[("Program_Id", Some(Value::str(format!("G{v}"))))],
                )
                .map(|_| ())
                .map_err(|e| e.to_string()),
            Op::DeleteShared(k) => oracle
                .delete_where(
                    "Paper",
                    &[Pred::Eq("Paper_Id".into(), Value::str(shared(k)))],
                )
                .map(|_| ())
                .map_err(|e| e.to_string()),
        }
    }
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0usize..64).prop_map(Op::InsertOwn),
        (0usize..6).prop_map(Op::InsertShared),
        ((0usize..6), (0u8..10)).prop_map(|(k, v)| Op::UpdateShared(k, v)),
        (0usize..6).prop_map(Op::DeleteShared),
    ]
}

fn run_history(plans: Vec<Vec<Op>>) -> Result<(), TestCaseError> {
    let server = Server::start(
        Database::create(sample_schema()).unwrap(),
        "127.0.0.1:0",
        ServerConfig::default(),
    )
    .unwrap();
    let addr = server.addr().to_string();

    // Fire every plan from its own client thread, keeping the commit
    // sequence number of each acknowledged write.
    let handles: Vec<_> = plans
        .into_iter()
        .enumerate()
        .map(|(t, plan)| {
            let addr = addr.clone();
            std::thread::spawn(move || {
                let mut c = Client::connect(&addr).unwrap();
                let mut acked: Vec<(i64, usize, Op)> = Vec::new();
                for op in plan {
                    let r = c.request(op.request(t)).unwrap();
                    if Client::is_ok(&r) {
                        let seq = r.get("seq").and_then(Json::as_i64).unwrap();
                        acked.push((seq, t, op));
                    }
                }
                acked
            })
        })
        .collect();
    let mut history: Vec<(i64, usize, Op)> = handles
        .into_iter()
        .flat_map(|h| h.join().unwrap())
        .collect();
    let final_db = server.shutdown().unwrap();

    // Sequence numbers name a total order with no duplicates.
    history.sort_by_key(|(seq, _, _)| *seq);
    for pair in history.windows(2) {
        prop_assert!(
            pair[0].0 < pair[1].0,
            "duplicate commit sequence {}",
            pair[0].0
        );
    }

    // Replaying acknowledged writes in sequence order through the
    // embedded oracle reproduces the server's final state exactly.
    let mut oracle = Database::create(sample_schema()).unwrap();
    for (seq, thread, op) in &history {
        if let Err(e) = op.apply(*thread, &mut oracle) {
            return Err(TestCaseError::fail(format!(
                "seq {seq} ({op:?} from thread {thread}) was acknowledged \
                 but fails in serial replay: {e}"
            )));
        }
    }
    prop_assert!(
        oracle.state() == final_db.state(),
        "serial replay of {} acknowledged writes diverges from the \
         server's final state ({} rows vs {} rows)",
        history.len(),
        oracle.state().num_rows(),
        final_db.state().num_rows()
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The server's concurrent history is linearizable: acknowledged
    /// writes replayed in commit-sequence order reproduce the final state.
    #[test]
    fn concurrent_sessions_are_linearizable(
        plans in proptest::collection::vec(
            proptest::collection::vec(op_strategy(), 10..30),
            3..6,
        )
    ) {
        run_history(plans)?;
    }
}
