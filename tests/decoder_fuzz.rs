//! Mutation fuzzing of every decoder of untrusted bytes.
//!
//! Each property starts from valid encodings — a DVEC wire frame, a DVET
//! table, a stats sidecar, an HTTP request, a minijson document — and
//! damages one of them: truncation at a random offset, one flipped bit,
//! or a length field inflated to a huge value. The decoder must answer
//! `Ok` or a typed `Err`; a panic fails the property with its seed.
//!
//! A corrupt header must not make a decoder reserve what the header
//! claims either. A counting [`GlobalAlloc`] records the largest single
//! allocation request each decode makes on its thread, and every case
//! asserts it stays within [`allocation_bound`], which is linear in the
//! length of the damaged input.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::io::Write;
use std::net::{Shutdown, TcpListener, TcpStream};
use std::time::Duration;

use distinct_values::cluster::protocol::{encode, read_message};
use distinct_values::cluster::{Message, PartialSpectrum, WireErrorCode, PROTOCOL_VERSION};
use distinct_values::numeric::check::{check, vec_of};
use distinct_values::numeric::rng::Rng;
use distinct_values::obs::minijson::{self, JsonValue, Writer};
use distinct_values::serve::http::read_request;
use distinct_values::storage::catalog::build_table_stats;
use distinct_values::storage::persist::{
    load_table_stats, read_table, save_table_stats, stats_path_for, write_table, MAGIC, VERSION,
};
use distinct_values::storage::{AnalyzeOptions, Column, DataType, Field, Schema, Table};

thread_local! {
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

/// Notes the size of every allocation request on the current thread.
struct LargestAlloc;

fn note(size: usize) {
    // Thread-locals can themselves allocate during TLS teardown;
    // `try_with` makes the probe inert in that window.
    let _ = LARGEST.try_with(|c| c.set(c.get().max(size)));
}

// SAFETY: every method passes its caller's arguments unchanged to the
// same `System` method, so the caller's `GlobalAlloc` guarantees are
// exactly what each `unsafe` call below requires; the bookkeeping only
// touches a thread-local cell and never allocates.
unsafe impl GlobalAlloc for LargestAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: LargestAlloc = LargestAlloc;

/// The largest single allocation a decoder may request for an input of
/// `input_len` bytes: 16 bytes per input byte, plus 64 KiB.
///
/// The slope covers a decoder building its value from the input: a
/// packed bit becomes a one-byte `bool`, a 4-byte dictionary code a
/// 16-byte `&str`, and a container doubling past its length adds 2×.
/// The intercept is one working buffer, which is also the most any
/// decoder reserves up front from a header-declared length before the
/// bytes behind it have arrived.
fn allocation_bound(input_len: usize) -> usize {
    16 * input_len + (64 << 10)
}

/// Runs `decode` and asserts that no single allocation it made on this
/// thread exceeded [`allocation_bound`] for an `input_len`-byte input.
fn within_allocation_bound<T>(input_len: usize, decode: impl FnOnce() -> T) -> T {
    let outer = LARGEST.with(|c| c.replace(0));
    let out = decode();
    let largest = LARGEST.with(|c| c.replace(outer.max(c.get())));
    let bound = allocation_bound(input_len);
    assert!(
        largest <= bound,
        "a {input_len}-byte input made the decoder request {largest} bytes at once \
         (bound {bound})"
    );
    out
}

/// Huge values a corrupted length field might carry.
const HUGE: [u64; 4] = [u32::MAX as u64, 1 << 31, u64::MAX, 1 << 40];

/// Applies one random mutation. `text` formats carry their lengths as
/// decimal digits, binary ones as little-endian integers.
fn mutate(rng: &mut Rng, mut bytes: Vec<u8>, text: bool) -> Vec<u8> {
    let len = bytes.len() as u64;
    match rng.below(3) {
        0 => bytes.truncate(rng.below(len) as usize),
        1 => bytes[rng.below(len) as usize] ^= 1 << rng.below(8),
        _ if text => {
            // Replace one run of digits with a huge decimal.
            let runs: Vec<usize> = (0..bytes.len())
                .filter(|&i| {
                    bytes[i].is_ascii_digit() && (i == 0 || !bytes[i - 1].is_ascii_digit())
                })
                .collect();
            let start = runs[rng.below(runs.len() as u64) as usize];
            let end = (start..bytes.len())
                .find(|&i| !bytes[i].is_ascii_digit())
                .unwrap_or(bytes.len());
            let huge = HUGE[rng.below(HUGE.len() as u64) as usize].to_string();
            bytes.splice(start..end, huge.bytes());
        }
        _ => {
            // Overwrite a 4- or 8-byte window with a huge little-endian
            // value.
            let huge = HUGE[rng.below(HUGE.len() as u64) as usize].to_le_bytes();
            let width = if rng.below(2) == 0 { 4 } else { 8 };
            let at = rng.below(len) as usize;
            for (b, h) in bytes[at..].iter_mut().zip(&huge[..width]) {
                *b = *h;
            }
        }
    }
    bytes
}

fn sample_table() -> Table {
    Table::new(
        Schema::new(vec![
            Field::new("id", DataType::Int64),
            Field::nullable("score", DataType::Int64),
            Field::new("city", DataType::Str),
            Field::new("price", DataType::Float64),
            Field::new("flag", DataType::Bool),
        ]),
        vec![
            Column::from_i64(&[1, 2, 3, 4, 5, 6]),
            Column::from_i64_opt(&[Some(10), None, Some(30), None, Some(50), Some(10)]),
            Column::from_strs(&["ny", "sf", "ny", "la", "sf", "ny"]),
            Column::from_f64(vec![1.5, -0.0, 2.25, 2.25, 1e-300, 7.0]),
            Column::from_bools(vec![true, false, true, true, false, true]),
        ],
    )
    .unwrap()
}

fn frames() -> Vec<Vec<u8>> {
    [
        Message::Hello {
            version: PROTOCOL_VERSION,
        },
        Message::HelloAck {
            version: PROTOCOL_VERSION,
            segments: 2,
            rows: 1_000,
        },
        Message::SpectrumReq {
            fraction: 0.25,
            seed: 7,
        },
        Message::SpectrumResp {
            partials: vec![
                PartialSpectrum {
                    n: 500,
                    entries: vec![(1, 40), (3, 2)],
                },
                PartialSpectrum {
                    n: 9,
                    entries: vec![(2, 1)],
                },
            ],
        },
        Message::Ping,
        Message::Error {
            code: WireErrorCode::BadRequest,
            message: "bad fraction".to_string(),
        },
    ]
    .iter()
    .map(encode)
    .collect()
}

#[test]
fn dvec_frames_decode_or_fail_typed() {
    let frames = frames();
    check("dvec_frames_decode_or_fail_typed", 256, |rng| {
        let frame = frames[rng.below(frames.len() as u64) as usize].clone();
        let bytes = mutate(rng, frame, false);
        let _ = within_allocation_bound(bytes.len(), || read_message(&mut bytes.as_slice()));
    });
}

/// Cases the allocation bound found, each a length the decoder accepted
/// as plausible and reserved before the bytes behind it arrived: an
/// 11-byte DVEC frame whose prefix declares 1 MiB (under the 64 MiB
/// frame cap) made `read_message` zero-fill 1 MiB; a DVET header
/// declaring 2^19 columns made `read_table` reserve 2 MiB of fields;
/// one declaring a 2^20-entry dictionary reserved 1.5 MiB of strings.
#[test]
fn plausible_declared_lengths_reserve_within_the_bound() {
    let mut frame = (1u32 << 20).to_le_bytes().to_vec();
    frame.extend_from_slice(&[0x05; 7]);
    let decoded = within_allocation_bound(frame.len(), || read_message(&mut frame.as_slice()));
    assert!(decoded.is_err(), "a truncated frame decoded");

    let header = |ncols: u32| {
        let mut buf = MAGIC.to_vec();
        buf.extend_from_slice(&VERSION.to_le_bytes());
        buf.extend_from_slice(&ncols.to_le_bytes());
        buf
    };
    let wide = header(1 << 19);
    let decoded = within_allocation_bound(wide.len(), || read_table(&mut wide.as_slice()));
    assert!(decoded.is_err(), "a truncated table decoded");

    // One `Str` column "k" (type tag 2, not nullable) of 2^20 rows, no
    // null bitmap, and a 2^20-entry dictionary that never arrives.
    let mut dict = header(1);
    dict.extend_from_slice(&1u32.to_le_bytes());
    dict.extend_from_slice(&[b'k', 2, 0]);
    dict.extend_from_slice(&(1u64 << 20).to_le_bytes());
    dict.push(0);
    dict.extend_from_slice(&(1u32 << 20).to_le_bytes());
    let decoded = within_allocation_bound(dict.len(), || read_table(&mut dict.as_slice()));
    assert!(decoded.is_err(), "a truncated dictionary decoded");
}

#[test]
fn dvet_tables_decode_or_fail_typed() {
    let mut valid = Vec::new();
    write_table(&sample_table(), &mut valid).unwrap();
    check("dvet_tables_decode_or_fail_typed", 256, |rng| {
        let bytes = mutate(rng, valid.clone(), false);
        let _ = within_allocation_bound(bytes.len(), || read_table(&mut bytes.as_slice()));
    });
}

#[test]
fn stats_sidecars_decode_or_fail_typed() {
    let dir = std::env::temp_dir().join(format!("dve-fuzz-stats-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let table_path = dir.join("t.dvet");
    let options = AnalyzeOptions {
        sampling_fraction: 0.5,
        estimator: "AE".into(),
    };
    let built = build_table_stats(&sample_table(), "t", &options, 3).unwrap();
    save_table_stats(&built, &table_path).unwrap();
    let sidecar = stats_path_for(&table_path);
    let valid = std::fs::read(&sidecar).unwrap();
    let body = built.to_json();
    check("stats_sidecars_decode_or_fail_typed", 256, |rng| {
        let bytes = if rng.below(2) == 0 {
            mutate(rng, valid.clone(), true)
        } else {
            // Damage the stats document under a valid envelope, so the
            // checksum passes and the catalog decoder itself is exercised.
            let body = mutate(rng, body.clone().into_bytes(), true);
            let checksum = body.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
                (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01B3)
            });
            let mut env = format!(
                "{{\"format\":\"dve-stats\",\"version\":1,\"checksum\":\"{checksum:#018x}\",\"stats\":"
            )
            .into_bytes();
            env.extend_from_slice(&body);
            env.extend_from_slice(b"}\n");
            env
        };
        std::fs::write(&sidecar, &bytes).unwrap();
        let _ = within_allocation_bound(bytes.len(), || load_table_stats(&table_path));
    });
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn http_requests_decode_or_fail_typed() {
    let body = r#"{"estimator":"GEE","n":10000,"spectrum":[40,30]}"#;
    let valid = format!(
        "POST /v1/estimate?explain=0 HTTP/1.1\r\nHost: localhost\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    check("http_requests_decode_or_fail_typed", 256, |rng| {
        let bytes = mutate(rng, valid.clone().into_bytes(), true);
        let mut client = TcpStream::connect(addr).unwrap();
        client.write_all(&bytes).unwrap();
        client.shutdown(Shutdown::Write).unwrap();
        let (mut server, _) = listener.accept().unwrap();
        let _ = within_allocation_bound(bytes.len(), || {
            read_request(&mut server, 1 << 20, Duration::from_secs(5))
        });
    });
}

#[test]
fn minijson_documents_parse_or_fail_typed() {
    let options = AnalyzeOptions {
        sampling_fraction: 1.0,
        estimator: "GEE".into(),
    };
    let docs = [
        build_table_stats(&sample_table(), "t", &options, 1)
            .unwrap()
            .to_json(),
        r#"{"a":[1,-2.5e3,true,false,null],"b":{"c":"é\n\"x\""},"d":[]}"#.to_string(),
    ];
    check("minijson_documents_parse_or_fail_typed", 256, |rng| {
        let doc = docs[rng.below(docs.len() as u64) as usize].clone();
        let bytes = mutate(rng, doc.into_bytes(), true);
        let text = String::from_utf8_lossy(&bytes);
        let _ = within_allocation_bound(bytes.len(), || minijson::parse(&text));
    });
}

/// Characters covering every class the string escaper distinguishes.
const JSON_CHARS: [char; 12] = [
    'a', 'é', '€', '/', '"', '\\', '\n', '\r', '\t', '\u{1}', '\u{1f}', '\u{7f}',
];

fn random_json_string(rng: &mut Rng) -> String {
    let chars = vec_of(rng, 0..6, |rng| JSON_CHARS[rng.below(12) as usize]);
    chars.into_iter().collect()
}

/// Writes a random document up to `depth` containers deep and returns
/// the value the reader must recover from it. Floats come from raw
/// bits, so NaN, ±inf, subnormals and -0 all occur; JSON has no
/// non-finite numbers, so those read back as `null`.
fn write_random_json(rng: &mut Rng, w: &mut Writer, depth: u32) -> JsonValue {
    match rng.below(if depth == 0 { 5 } else { 7 }) {
        0 => {
            w.value(None::<u64>);
            JsonValue::Null
        }
        1 => {
            let x = f64::from_bits(rng.next_u64());
            w.value(x);
            if x.is_finite() {
                JsonValue::Num(x)
            } else {
                JsonValue::Null
            }
        }
        2 => {
            let n = rng.below(1 << 53);
            w.value(n);
            JsonValue::Num(n as f64)
        }
        3 => {
            let n = -(rng.below(1 << 53) as i64);
            w.value(n);
            JsonValue::Num(n as f64)
        }
        4 => {
            let s = random_json_string(rng);
            w.value(&s);
            JsonValue::Str(s)
        }
        5 => {
            w.begin_array();
            let items = vec_of(rng, 0..4, |rng| write_random_json(rng, w, depth - 1));
            w.end_array();
            JsonValue::Arr(items)
        }
        _ => {
            w.begin_object();
            let members = vec_of(rng, 0..4, |rng| {
                let key = random_json_string(rng);
                w.key(&key);
                (key, write_random_json(rng, w, depth - 1))
            });
            w.end_object();
            JsonValue::Obj(members)
        }
    }
}

/// Every document the writer produces parses back to the value written.
#[test]
fn minijson_writer_output_parses_to_the_written_value() {
    check(
        "minijson_writer_output_parses_to_the_written_value",
        512,
        |rng| {
            let mut text = String::new();
            let written = write_random_json(rng, &mut Writer::new(&mut text), 4);
            let parsed = minijson::parse(&text).unwrap_or_else(|e| panic!("{e}: {text}"));
            assert_eq!(parsed, written, "{text}");
        },
    );
}
