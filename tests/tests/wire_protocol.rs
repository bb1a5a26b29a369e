//! The wire protocol in isolation: every frame type round-trips through
//! its encoding, malformed bytes of every kind come back as typed
//! `ProtocolError`s (never panics), and a golden-bytes test pins the exact
//! encoding so any change to the frame layout is a deliberate protocol
//! version bump, not an accident.

use mrq_common::{DataType, Date, Decimal, Field, MrqError, Schema, Value};
use mrq_core::{ParallelConfig, QueryOptions, Strategy};
use mrq_engine_hybrid::{HybridConfig, Materialization, TransferPolicy};
use mrq_expr::{col, lam, lit, BinaryOp, Expr, Query, SourceId};
use mrq_protocol::frame::{read_frame, write_frame, Request, Response, MAX_FRAME};
use mrq_protocol::ProtocolError;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::io::Cursor;
use std::time::Duration;

fn sample_expr() -> Expr {
    Query::from_source(SourceId(3))
        .where_(lam(
            "x",
            Expr::binary(BinaryOp::Gt, col("x", "n"), lit(5i64)),
        ))
        .select(lam("x", col("x", "n")))
        .into_expr()
}

fn sample_schema() -> Schema {
    Schema::new(
        "Golden",
        vec![
            Field::new("k", DataType::Int64),
            Field::new("price", DataType::Decimal),
        ],
    )
}

fn random_value(rng: &mut SmallRng) -> Value {
    match rng.gen_range(0..8u32) {
        0 => Value::Null,
        1 => Value::Bool(rng.gen_bool(0.5)),
        2 => Value::Int32(rng.gen_range(i32::MIN..=i32::MAX)),
        3 => Value::Int64(rng.gen_range(i64::MIN..=i64::MAX)),
        4 => Value::Decimal(Decimal::from_raw(rng.gen_range(i64::MIN..=i64::MAX))),
        5 => Value::Float64(f64::from_bits(rng.gen_range(0..=u64::MAX))),
        6 => Value::Date(Date::from_epoch_days(rng.gen_range(-100_000..100_000))),
        _ => {
            let len = rng.gen_range(0..12usize);
            let s: String = (0..len)
                .map(|_| char::from(rng.gen_range(32..127u8)))
                .collect();
            Value::str(&s)
        }
    }
}

/// Compare values by encoding-relevant identity: NaN floats never compare
/// equal through `PartialEq`, but their bit patterns must survive.
fn assert_value_identical(a: &Value, b: &Value) {
    match (a, b) {
        (Value::Float64(x), Value::Float64(y)) => assert_eq!(x.to_bits(), y.to_bits()),
        _ => assert_eq!(a, b),
    }
}

fn all_strategies() -> Vec<Strategy> {
    vec![
        Strategy::LinqToObjects,
        Strategy::CompiledCSharp,
        Strategy::CompiledNative,
        Strategy::CompiledNativeParallel(ParallelConfig {
            threads: 8,
            min_rows_per_thread: 16,
            morsel_rows: 64,
        }),
        Strategy::Hybrid(HybridConfig {
            materialization: Materialization::Buffered {
                rows_per_buffer: 4096,
            },
            transfer: TransferPolicy::Min,
            parallel: ParallelConfig::sequential(),
        }),
    ]
}

#[test]
fn every_request_frame_round_trips() {
    let mut rng = SmallRng::seed_from_u64(42);
    let mut frames = vec![
        Request::hello(),
        Request::CloseStatement { statement: 17 },
        Request::Shutdown,
    ];
    for strategy in all_strategies() {
        frames.push(Request::Query {
            id: rng.gen_range(0..=u64::MAX),
            streamed: rng.gen_bool(0.5),
            strategy,
            options: QueryOptions::new()
                .with_deadline(Duration::from_millis(rng.gen_range(0..10_000)))
                .with_stream_batch_rows(rng.gen_range(1..10_000usize)),
            expr: sample_expr(),
        });
        frames.push(Request::Prepare {
            id: rng.gen_range(0..=u64::MAX),
            strategy,
            expr: sample_expr(),
        });
    }
    for class in [
        QueryOptions::new(),
        QueryOptions::batch(),
        QueryOptions::maintenance(),
    ] {
        frames.push(Request::Execute {
            id: rng.gen_range(0..=u64::MAX),
            statement: rng.gen_range(0..=u64::MAX),
            streamed: rng.gen_bool(0.5),
            options: class,
            bindings: (0..rng.gen_range(0..6usize))
                .map(|_| random_value(&mut rng))
                .collect(),
        });
    }
    for frame in frames {
        let decoded = Request::decode(&frame.encode()).expect("round trip");
        // Float64 bindings can carry NaN bit patterns PartialEq rejects;
        // compare Execute bindings value by value, everything else directly.
        match (&frame, &decoded) {
            (Request::Execute { bindings: a, .. }, Request::Execute { bindings: b, .. }) => {
                assert_eq!(a.len(), b.len());
                for (x, y) in a.iter().zip(b) {
                    assert_value_identical(x, y);
                }
            }
            _ => assert_eq!(frame, decoded),
        }
    }
}

#[test]
fn every_response_frame_round_trips() {
    let mut rng = SmallRng::seed_from_u64(7);
    let errors = vec![
        MrqError::UnknownField("l_tax".into()),
        MrqError::TypeMismatch {
            expected: "Decimal".into(),
            found: "Str".into(),
        },
        MrqError::Unsupported("user-defined constructor".into()),
        MrqError::Codegen("unbound lambda".into()),
        MrqError::Heap("handle out of range".into()),
        MrqError::Cancelled,
        MrqError::DeadlineExceeded,
        MrqError::Overloaded {
            in_flight: 6,
            limit: 4,
        },
        MrqError::Internal("panic at pool.dispatch".into()),
    ];
    let mut frames = vec![
        Response::Hello { version: 1 },
        Response::End { id: 3 },
        Response::Prepared {
            id: 4,
            statement: 9,
            param_slots: 2,
        },
    ];
    for error in errors {
        frames.push(Response::Error {
            id: rng.gen_range(0..=u64::MAX),
            error,
        });
    }
    for _ in 0..8 {
        let rows: Vec<Vec<Value>> = (0..rng.gen_range(0..5usize))
            .map(|_| (0..2).map(|_| random_value(&mut rng)).collect())
            .collect();
        frames.push(Response::Batch {
            id: rng.gen_range(0..=u64::MAX),
            rows: rows.clone(),
        });
        frames.push(Response::Rows {
            id: rng.gen_range(0..=u64::MAX),
            schema: sample_schema(),
            rows,
        });
    }
    for frame in frames {
        let decoded = Response::decode(&frame.encode()).expect("round trip");
        let rows_of = |f: &Response| match f {
            Response::Rows { rows, .. } | Response::Batch { rows, .. } => Some(rows.clone()),
            _ => None,
        };
        match (rows_of(&frame), rows_of(&decoded)) {
            (Some(a), Some(b)) => {
                assert_eq!(a.len(), b.len());
                for (ra, rb) in a.iter().zip(&b) {
                    for (x, y) in ra.iter().zip(rb) {
                        assert_value_identical(x, y);
                    }
                }
            }
            _ => assert_eq!(frame, decoded),
        }
    }
}

/// Every strict prefix of a valid frame payload must decode to an error —
/// never a panic, and never a silent short parse (the decoders demand the
/// payload be consumed exactly).
#[test]
fn truncated_payloads_are_typed_errors_not_panics() {
    let request = Request::Query {
        id: 1,
        streamed: true,
        strategy: Strategy::CompiledNative,
        options: QueryOptions::new(),
        expr: sample_expr(),
    };
    let payload = request.encode();
    for cut in 0..payload.len() {
        assert!(
            Request::decode(&payload[..cut]).is_err(),
            "prefix of {cut} bytes decoded successfully"
        );
    }
    let response = Response::Rows {
        id: 2,
        schema: sample_schema(),
        rows: vec![vec![
            Value::Int64(1),
            Value::Decimal(Decimal::from_raw(250)),
        ]],
    };
    let payload = response.encode();
    for cut in 0..payload.len() {
        assert!(
            Response::decode(&payload[..cut]).is_err(),
            "prefix of {cut} bytes decoded successfully"
        );
    }
}

/// Random byte soup must never panic the decoders (errors are fine, and a
/// freak valid parse is fine too — the property under test is totality).
#[test]
fn garbage_bytes_never_panic_the_decoders() {
    let mut rng = SmallRng::seed_from_u64(99);
    for _ in 0..2_000 {
        let len = rng.gen_range(0..64usize);
        let bytes: Vec<u8> = (0..len).map(|_| rng.gen_range(0..=u8::MAX)).collect();
        let _ = Request::decode(&bytes);
        let _ = Response::decode(&bytes);
        let _ = read_frame(&mut Cursor::new(bytes));
    }
}

/// Trailing bytes after a structurally complete frame are a protocol
/// error: both sides must agree on the exact frame layout.
#[test]
fn trailing_bytes_are_rejected() {
    let mut payload = Request::Shutdown.encode();
    payload.push(0);
    assert!(matches!(
        Request::decode(&payload),
        Err(ProtocolError::TrailingBytes(1))
    ));
}

/// A length prefix beyond `MAX_FRAME` is rejected before any allocation;
/// an EOF mid-payload is a truncation error; a clean EOF at a frame
/// boundary is simply the end of the conversation.
#[test]
fn envelope_guards_oversize_and_truncation() {
    let huge = ((MAX_FRAME + 1) as u32).to_le_bytes();
    assert!(matches!(
        read_frame(&mut Cursor::new(huge.to_vec())),
        Err(ProtocolError::Oversized(_))
    ));

    let mut cut_short = 32u32.to_le_bytes().to_vec();
    cut_short.extend_from_slice(&[0xAB; 5]);
    assert!(matches!(
        read_frame(&mut Cursor::new(cut_short)),
        Err(ProtocolError::Truncated)
    ));

    assert!(read_frame(&mut Cursor::new(Vec::new()))
        .expect("clean EOF")
        .is_none());

    let mut pipe = Vec::new();
    write_frame(&mut pipe, &Request::Shutdown.encode()).unwrap();
    let mut cursor = Cursor::new(pipe);
    let payload = read_frame(&mut cursor).unwrap().expect("one frame");
    assert_eq!(Request::decode(&payload).unwrap(), Request::Shutdown);
    assert!(read_frame(&mut cursor).unwrap().is_none());
}

/// The golden bytes: a fixed query request and two fixed responses, pinned
/// down to the byte. If this test fails, the wire format changed — bump
/// `mrq_protocol::VERSION` and update the spec in `docs/SERVING.md` before
/// updating the constants.
#[test]
fn golden_bytes_pin_the_encoding() {
    let request = Request::Query {
        id: 7,
        streamed: true,
        strategy: Strategy::CompiledNativeParallel(ParallelConfig {
            threads: 2,
            min_rows_per_thread: 16,
            morsel_rows: 64,
        }),
        options: QueryOptions::new()
            .with_deadline(Duration::from_millis(250))
            .with_stream_batch_rows(100),
        expr: sample_expr(),
    };
    assert_eq!(hex(&request.encode()), GOLDEN_QUERY);

    let rows = Response::Rows {
        id: 1,
        schema: sample_schema(),
        rows: vec![
            vec![Value::Int64(42), Value::Decimal(Decimal::from_raw(-250))],
            vec![Value::Null, Value::str("ok")],
        ],
    };
    assert_eq!(hex(&rows.encode()), GOLDEN_ROWS);

    let shed = Response::Error {
        id: 9,
        error: MrqError::Overloaded {
            in_flight: 6,
            limit: 4,
        },
    };
    assert_eq!(hex(&shed.encode()), GOLDEN_OVERLOADED);
}

/// The byte after a parallel config's three `u64`s is reserved: encoders
/// write `1`, and a `0` — what an older client that turned the retired
/// scheduler switch off wrote — decodes to the same request. A value that
/// is not a bool is still a typed error.
#[test]
fn the_reserved_parallel_byte_is_ignored_but_validated() {
    let golden = unhex(GOLDEN_QUERY);
    let parallel = unhex(concat!(
        "0200000000000000",
        "1000000000000000",
        "4000000000000000",
        "01"
    ));
    let at = golden
        .windows(parallel.len())
        .position(|w| w == parallel.as_slice())
        .expect("the golden query carries the parallel config");
    let reserved = at + parallel.len() - 1;
    let expected = Request::decode(&golden).unwrap();

    let mut old_client = golden.clone();
    old_client[reserved] = 0;
    assert_eq!(Request::decode(&old_client).unwrap(), expected);
    assert_eq!(hex(&expected.encode()), GOLDEN_QUERY, "encoders write 1");

    let mut corrupted = golden;
    corrupted[reserved] = 2;
    assert!(matches!(
        Request::decode(&corrupted),
        Err(ProtocolError::Invalid(_))
    ));
}

/// The byte after a Hybrid strategy's transfer flag is reserved: encoders
/// write `0`, and a `1` — what an older client asking for the retired
/// columnar staging layout wrote — decodes to the same request. A value
/// that is not a bool is still a typed error.
#[test]
fn the_reserved_layout_byte_is_ignored_but_validated() {
    let request = Request::Query {
        id: 11,
        streamed: false,
        strategy: Strategy::Hybrid(HybridConfig::default().parallel(ParallelConfig {
            threads: 2,
            min_rows_per_thread: 16,
            morsel_rows: 64,
        })),
        options: QueryOptions::new(),
        expr: sample_expr(),
    };
    let encoded = request.encode();
    // Strategy tag 4, Full materialisation, Max transfer, the reserved
    // byte, then the parallel config.
    let hybrid = unhex(concat!(
        "04000000",
        "0200000000000000",
        "1000000000000000",
        "4000000000000000",
        "01"
    ));
    let reserved = encoded
        .windows(hybrid.len())
        .position(|w| w == hybrid.as_slice())
        .expect("the query carries the hybrid strategy")
        + 3;

    let mut old_client = encoded.clone();
    old_client[reserved] = 1;
    let decoded = Request::decode(&old_client).unwrap();
    assert_eq!(decoded, request);
    assert_eq!(hex(&decoded.encode()), hex(&encoded), "encoders write 0");

    let mut corrupted = encoded;
    corrupted[reserved] = 2;
    assert!(matches!(
        Request::decode(&corrupted),
        Err(ProtocolError::Invalid(_))
    ));
}

fn unhex(text: &str) -> Vec<u8> {
    (0..text.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&text[i..i + 2], 16).unwrap())
        .collect()
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

const GOLDEN_QUERY: &str = "0207000000000000000103020000000000000010000000000000004000000000000000010180b2e60e00000000006400000000000000080100080000020300000001000000070100000078050404010000006e030100000078000305000000000000000100000007010000007804010000006e030100000078";
const GOLDEN_ROWS: &str = "82010000000000000006000000476f6c64656e02000000010000006b02050000007072696365030200000002000000032a000000000000000406ffffffffffffff020000000007020000006f6b";
const GOLDEN_OVERLOADED: &str = "8509000000000000000706000000000000000400000000000000";
