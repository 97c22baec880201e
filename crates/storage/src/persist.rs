//! Table persistence: a compact, checksummed binary format.
//!
//! The format stores *logical* data (values + null masks); physical
//! encodings (RLE/dictionary chunks) are rebuilt at load time by the
//! column constructors, so readers always see freshly optimized layouts
//! and the format never has to version encoding internals.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! magic  "DVET"            4 bytes
//! version u32              currently 1
//! ncols   u32
//! per column:  name_len u32, name bytes, dtype u8, nullable u8
//! nrows   u64
//! per column:
//!   null_flag u8           0 = no nulls, 1 = packed null bitmap follows
//!   [bitmap: ceil(nrows/8) bytes]
//!   payload                type-dependent (see below)
//!   checksum u64           FNV-1a over the column's payload bytes
//! ```
//!
//! Payloads: `Int64` → `nrows × i64`; `Float64` → `nrows × u64` bit
//! patterns; `Bool` → packed bitmap; `Str` → `dict_len u32`, dictionary
//! strings (`len u32` + bytes each), then `nrows × u32` codes.

use crate::column::Column;
use crate::table::{Field, Schema, Table, TableError};
use crate::value::DataType;
use dve_obs::minijson::Writer;
use std::io::{self, Read, Write};

/// Format magic bytes.
pub const MAGIC: [u8; 4] = *b"DVET";
/// Current format version.
pub const VERSION: u32 = 1;

/// Errors raised while reading a persisted table.
#[derive(Debug)]
pub enum PersistError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// Magic bytes did not match.
    BadMagic,
    /// Unsupported format version.
    BadVersion(
        /// The version found.
        u32,
    ),
    /// A column checksum failed — the file is corrupt.
    ChecksumMismatch {
        /// Column name.
        column: String,
    },
    /// Structural problem (bad type tag, dictionary code out of range…).
    Corrupt(
        /// Description.
        String,
    ),
    /// The decoded pieces did not assemble into a valid table.
    Table(TableError),
}

impl std::fmt::Display for PersistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PersistError::Io(e) => write!(f, "i/o error: {e}"),
            PersistError::BadMagic => write!(f, "not a DVET file (bad magic)"),
            PersistError::BadVersion(v) => write!(f, "unsupported format version {v}"),
            PersistError::ChecksumMismatch { column } => {
                write!(f, "checksum mismatch in column {column}")
            }
            PersistError::Corrupt(m) => write!(f, "corrupt file: {m}"),
            PersistError::Table(e) => write!(f, "invalid table: {e}"),
        }
    }
}

impl std::error::Error for PersistError {}

impl From<io::Error> for PersistError {
    fn from(e: io::Error) -> Self {
        PersistError::Io(e)
    }
}

impl From<TableError> for PersistError {
    fn from(e: TableError) -> Self {
        PersistError::Table(e)
    }
}

fn dtype_tag(dt: DataType) -> u8 {
    match dt {
        DataType::Int64 => 0,
        DataType::Float64 => 1,
        DataType::Str => 2,
        DataType::Bool => 3,
    }
}

fn tag_dtype(tag: u8) -> Result<DataType, PersistError> {
    Ok(match tag {
        0 => DataType::Int64,
        1 => DataType::Float64,
        2 => DataType::Str,
        3 => DataType::Bool,
        t => return Err(PersistError::Corrupt(format!("unknown type tag {t}"))),
    })
}

/// Streaming FNV-1a checksum of payload bytes.
struct Checksum(u64);

impl Checksum {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
    fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
}

/// A writer that checksums everything written through it.
struct SummedWriter<'a, W: Write> {
    inner: &'a mut W,
    sum: Checksum,
}

impl<'a, W: Write> SummedWriter<'a, W> {
    fn new(inner: &'a mut W) -> Self {
        Self {
            inner,
            sum: Checksum::new(),
        }
    }
    fn write_all(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.sum.update(bytes);
        self.inner.write_all(bytes)
    }
    fn finish(self) -> u64 {
        self.sum.0
    }
}

fn pack_bits(flags: &[bool]) -> Vec<u8> {
    let mut out = vec![0u8; flags.len().div_ceil(8)];
    for (i, &b) in flags.iter().enumerate() {
        if b {
            out[i / 8] |= 1 << (i % 8);
        }
    }
    out
}

fn unpack_bits(bytes: &[u8], len: usize) -> Vec<bool> {
    (0..len)
        .map(|i| bytes[i / 8] & (1 << (i % 8)) != 0)
        .collect()
}

/// Serializes a table to any writer.
pub fn write_table<W: Write>(table: &Table, out: &mut W) -> Result<(), PersistError> {
    out.write_all(&MAGIC)?;
    out.write_all(&VERSION.to_le_bytes())?;
    out.write_all(&(table.schema().len() as u32).to_le_bytes())?;
    for field in table.schema().fields() {
        out.write_all(&(field.name.len() as u32).to_le_bytes())?;
        out.write_all(field.name.as_bytes())?;
        out.write_all(&[dtype_tag(field.data_type), u8::from(field.nullable)])?;
    }
    let rows = table.row_count();
    out.write_all(&(rows as u64).to_le_bytes())?;

    for idx in 0..table.schema().len() {
        let col = table.column(idx);
        let nulls: Vec<bool> = (0..rows).map(|row| col.is_null(row)).collect();
        let has_nulls = nulls.iter().any(|&b| b);
        if has_nulls && matches!(col, Column::Float64 { .. } | Column::Bool { .. }) {
            // Keep write/read capabilities symmetric: the reader rejects
            // these, so refuse to produce them.
            return Err(PersistError::Corrupt(format!(
                "nullable {} not supported by format v{VERSION}",
                col.data_type()
            )));
        }
        out.write_all(&[u8::from(has_nulls)])?;
        if has_nulls {
            out.write_all(&pack_bits(&nulls))?;
        }
        let mut w = SummedWriter::new(out);
        match col {
            Column::Int64 { .. } => {
                for row in 0..rows {
                    let v = match col.get(row) {
                        crate::value::Value::Int64(v) => v,
                        _ => 0, // NULL rows carry a placeholder
                    };
                    w.write_all(&v.to_le_bytes())?;
                }
            }
            Column::Float64 { data, .. } => {
                for &v in data {
                    w.write_all(&v.to_bits().to_le_bytes())?;
                }
            }
            Column::Bool { data, .. } => {
                w.write_all(&pack_bits(data))?;
            }
            Column::Str { codes, dict, .. } => {
                w.write_all(&(dict.len() as u32).to_le_bytes())?;
                for s in dict {
                    w.write_all(&(s.len() as u32).to_le_bytes())?;
                    w.write_all(s.as_bytes())?;
                }
                for &c in codes {
                    w.write_all(&c.to_le_bytes())?;
                }
            }
        }
        let sum = w.finish();
        out.write_all(&sum.to_le_bytes())?;
    }
    Ok(())
}

/// Reads exactly `len` bytes. The buffer grows with the bytes that
/// actually arrive, so a corrupt length fails as a short read instead of
/// an up-front allocation of whatever the header claims.
fn read_exact_vec<R: Read>(r: &mut R, len: usize) -> Result<Vec<u8>, PersistError> {
    let mut buf = vec_for(len);
    r.take(len as u64).read_to_end(&mut buf)?;
    if buf.len() != len {
        return Err(io::Error::from(io::ErrorKind::UnexpectedEof).into());
    }
    Ok(buf)
}

/// Largest up-front reservation, in bytes, a header-declared count may
/// trigger.
const PREALLOC_BYTES: usize = 1 << 16;

/// An empty vector with room for `count` elements, or for as many as
/// fit in [`PREALLOC_BYTES`] when the header declares more: past that
/// it grows with the entries that actually decode.
fn vec_for<T>(count: usize) -> Vec<T> {
    Vec::with_capacity(count.min(PREALLOC_BYTES / std::mem::size_of::<T>().max(1)))
}

fn read_u32<R: Read>(r: &mut R) -> Result<u32, PersistError> {
    let mut b = [0u8; 4];
    r.read_exact(&mut b)?;
    Ok(u32::from_le_bytes(b))
}

fn read_u64<R: Read>(r: &mut R) -> Result<u64, PersistError> {
    let mut b = [0u8; 8];
    r.read_exact(&mut b)?;
    Ok(u64::from_le_bytes(b))
}

/// Deserializes a table from any reader, verifying per-column checksums.
pub fn read_table<R: Read>(input: &mut R) -> Result<Table, PersistError> {
    let mut magic = [0u8; 4];
    input.read_exact(&mut magic)?;
    if magic != MAGIC {
        return Err(PersistError::BadMagic);
    }
    let version = read_u32(input)?;
    if version != VERSION {
        return Err(PersistError::BadVersion(version));
    }
    let ncols = read_u32(input)? as usize;
    if ncols > 1 << 20 {
        return Err(PersistError::Corrupt(format!("{ncols} columns")));
    }
    let mut fields = vec_for(ncols);
    for _ in 0..ncols {
        let name_len = read_u32(input)? as usize;
        if name_len > 1 << 20 {
            return Err(PersistError::Corrupt("column name too long".into()));
        }
        let name_bytes = read_exact_vec(input, name_len)?;
        let name = String::from_utf8(name_bytes)
            .map_err(|_| PersistError::Corrupt("column name not UTF-8".into()))?;
        let mut meta = [0u8; 2];
        input.read_exact(&mut meta)?;
        let dtype = tag_dtype(meta[0])?;
        let field = if meta[1] != 0 {
            Field::nullable(name, dtype)
        } else {
            Field::new(name, dtype)
        };
        fields.push(field);
    }
    let rows = read_u64(input)? as usize;
    // Guard eager payload allocations against corrupt headers: cap at
    // 2^31 rows (a 16 GiB Int64 column), far above anything the in-memory
    // writer can produce but small enough that a bogus length fails fast
    // as Corrupt instead of aborting on a monster allocation.
    if rows > 1 << 31 {
        return Err(PersistError::Corrupt(format!("{rows} rows")));
    }

    let mut columns = vec_for(ncols);
    for field in &fields {
        let mut null_flag = [0u8; 1];
        input.read_exact(&mut null_flag)?;
        let nulls: Option<Vec<bool>> = if null_flag[0] != 0 {
            let bytes = read_exact_vec(input, rows.div_ceil(8))?;
            Some(unpack_bits(&bytes, rows))
        } else {
            None
        };
        let mut sum = Checksum::new();
        let column = match field.data_type {
            DataType::Int64 => {
                let bytes = read_exact_vec(input, rows * 8)?;
                sum.update(&bytes);
                let values: Vec<i64> = bytes
                    .chunks_exact(8)
                    .map(|c| i64::from_le_bytes(c.try_into().expect("8-byte chunk")))
                    .collect();
                match &nulls {
                    None => Column::from_i64(&values),
                    Some(flags) => {
                        let opt: Vec<Option<i64>> = values
                            .iter()
                            .zip(flags)
                            .map(|(&v, &is_null)| if is_null { None } else { Some(v) })
                            .collect();
                        Column::from_i64_opt(&opt)
                    }
                }
            }
            DataType::Float64 => {
                let bytes = read_exact_vec(input, rows * 8)?;
                sum.update(&bytes);
                let values: Vec<f64> = bytes
                    .chunks_exact(8)
                    .map(|c| f64::from_bits(u64::from_le_bytes(c.try_into().expect("8 bytes"))))
                    .collect();
                if nulls.is_some() {
                    return Err(PersistError::Corrupt(
                        "nullable Float64 not supported by this version".into(),
                    ));
                }
                Column::from_f64(values)
            }
            DataType::Bool => {
                let bytes = read_exact_vec(input, rows.div_ceil(8))?;
                sum.update(&bytes);
                let values = unpack_bits(&bytes, rows);
                if nulls.is_some() {
                    return Err(PersistError::Corrupt(
                        "nullable Bool not supported by this version".into(),
                    ));
                }
                Column::from_bools(values)
            }
            DataType::Str => {
                let dict_len_bytes = read_exact_vec(input, 4)?;
                sum.update(&dict_len_bytes);
                let dict_len =
                    u32::from_le_bytes(dict_len_bytes.as_slice().try_into().expect("4 bytes"))
                        as usize;
                if dict_len > rows.max(1) {
                    return Err(PersistError::Corrupt("dictionary larger than rows".into()));
                }
                let mut dict = vec_for(dict_len);
                for _ in 0..dict_len {
                    let len_bytes = read_exact_vec(input, 4)?;
                    sum.update(&len_bytes);
                    let len = u32::from_le_bytes(len_bytes.as_slice().try_into().expect("4 bytes"))
                        as usize;
                    if len > 1 << 24 {
                        return Err(PersistError::Corrupt("oversized string".into()));
                    }
                    let s_bytes = read_exact_vec(input, len)?;
                    sum.update(&s_bytes);
                    dict.push(
                        String::from_utf8(s_bytes)
                            .map_err(|_| PersistError::Corrupt("string not UTF-8".into()))?,
                    );
                }
                let code_bytes = read_exact_vec(input, rows * 4)?;
                sum.update(&code_bytes);
                let codes: Vec<u32> = code_bytes
                    .chunks_exact(4)
                    .map(|c| u32::from_le_bytes(c.try_into().expect("4 bytes")))
                    .collect();
                for &c in &codes {
                    if c as usize >= dict.len().max(1) {
                        return Err(PersistError::Corrupt(format!(
                            "dictionary code {c} out of range"
                        )));
                    }
                }
                let strs: Vec<Option<&str>> = codes
                    .iter()
                    .enumerate()
                    .map(|(row, &c)| {
                        if nulls.as_ref().is_some_and(|f| f[row]) {
                            None
                        } else {
                            Some(dict[c as usize].as_str())
                        }
                    })
                    .collect();
                if nulls.is_some() {
                    Column::from_strs_opt(&strs)
                } else {
                    let plain: Vec<&str> = strs.iter().map(|s| s.unwrap_or("")).collect();
                    Column::from_strs(&plain)
                }
            }
        };
        let stored = read_u64(input)?;
        if stored != sum.0 {
            return Err(PersistError::ChecksumMismatch {
                column: field.name.clone(),
            });
        }
        columns.push(column);
    }
    Ok(Table::new(Schema::new(fields), columns)?)
}

/// Convenience: write a table to a file path.
pub fn save_table(table: &Table, path: &std::path::Path) -> Result<(), PersistError> {
    let mut f = io::BufWriter::new(std::fs::File::create(path)?);
    write_table(table, &mut f)?;
    f.flush()?;
    Ok(())
}

/// Convenience: read a table from a file path.
pub fn load_table(path: &std::path::Path) -> Result<Table, PersistError> {
    let mut f = io::BufReader::new(std::fs::File::open(path)?);
    read_table(&mut f)
}

// ---------------------------------------------------------------------
// Statistics catalog persistence
// ---------------------------------------------------------------------
//
// Stats live in a sibling file (`t.dvet` → `t.dvet.stats.json`) so a
// table file never changes when its statistics do. The envelope is
// JSON rather than the binary table format — stats are small, and the
// catalog's canonical serializer already guarantees byte-stable
// round-trips — but it keeps the same discipline: a format marker, a
// version, and an FNV-1a checksum over the embedded stats document.
//
// ```text
// {"format":"dve-stats","version":1,"checksum":"0x<16 hex>","stats":{…}}
// ```

/// Format marker inside the stats envelope.
pub const STATS_FORMAT: &str = "dve-stats";

/// Path of the statistics file that rides alongside a table file.
pub fn stats_path_for(table_path: &std::path::Path) -> std::path::PathBuf {
    let mut name = table_path
        .file_name()
        .map(|n| n.to_os_string())
        .unwrap_or_default();
    name.push(".stats.json");
    table_path.with_file_name(name)
}

/// FNV-1a over a byte string, as the stats envelope records it.
fn stats_checksum(bytes: &[u8]) -> u64 {
    let mut sum = Checksum::new();
    sum.update(bytes);
    sum.0
}

/// Writes the stats envelope for `table_path`'s sibling stats file.
pub fn save_table_stats(
    stats: &crate::catalog::TableStats,
    table_path: &std::path::Path,
) -> Result<(), PersistError> {
    let body = stats.to_json();
    let mut envelope = String::with_capacity(body.len() + 96);
    Writer::new(&mut envelope)
        .begin_object()
        .field("format", STATS_FORMAT)
        .field("version", VERSION)
        .field(
            "checksum",
            &format!("{:#018x}", stats_checksum(body.as_bytes())),
        )
        .key("stats")
        .raw(&body)
        .end_object();
    envelope.push('\n');
    std::fs::write(stats_path_for(table_path), envelope)?;
    Ok(())
}

/// Reads and verifies the stats envelope for `table_path`.
pub fn load_table_stats(
    table_path: &std::path::Path,
) -> Result<crate::catalog::TableStats, PersistError> {
    let raw = std::fs::read_to_string(stats_path_for(table_path))?;
    let raw = raw.trim_end();
    // Locate the embedded stats document textually so the checksum is
    // computed over the exact persisted bytes. The marker cannot occur
    // earlier: the only free-form strings (table/column names, estimator)
    // all come after the "stats" key.
    let marker = ",\"stats\":";
    let start = raw
        .find(marker)
        .ok_or_else(|| PersistError::Corrupt("stats envelope missing \"stats\" member".into()))?
        + marker.len();
    if !raw.ends_with('}') || start >= raw.len() {
        return Err(PersistError::Corrupt("stats envelope truncated".into()));
    }
    let body = &raw[start..raw.len() - 1];

    let head = dve_obs::minijson::parse(raw)
        .map_err(|e| PersistError::Corrupt(format!("stats envelope: {e}")))?;
    match head.get("format").and_then(|v| v.as_str()) {
        Some(STATS_FORMAT) => {}
        _ => return Err(PersistError::Corrupt("not a dve-stats file".into())),
    }
    let version = head
        .get("version")
        .and_then(|v| v.as_u64())
        .ok_or_else(|| PersistError::Corrupt("stats envelope missing version".into()))?;
    if version != VERSION as u64 {
        return Err(PersistError::BadVersion(version as u32));
    }
    let stored = head
        .get("checksum")
        .and_then(|v| v.as_str())
        .and_then(|s| s.strip_prefix("0x"))
        .and_then(|s| u64::from_str_radix(s, 16).ok())
        .ok_or_else(|| PersistError::Corrupt("stats envelope missing checksum".into()))?;
    if stored != stats_checksum(body.as_bytes()) {
        return Err(PersistError::ChecksumMismatch {
            column: "<stats>".into(),
        });
    }
    crate::catalog::TableStats::from_json(body).map_err(PersistError::Corrupt)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Value;

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
                Column::from_i64(&[1, 2, 3, 4, 5]),
                Column::from_i64_opt(&[Some(10), None, Some(30), None, Some(50)]),
                Column::from_strs(&["ny", "sf", "ny", "la", "sf"]),
                Column::from_f64(vec![1.5, -0.0, f64::MAX, 2.25, 1e-300]),
                Column::from_bools(vec![true, false, true, true, false]),
            ],
        )
        .unwrap()
    }

    fn roundtrip(table: &Table) -> Table {
        let mut buf = Vec::new();
        write_table(table, &mut buf).unwrap();
        read_table(&mut buf.as_slice()).unwrap()
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let orig = sample_table();
        let loaded = roundtrip(&orig);
        assert_eq!(loaded.row_count(), orig.row_count());
        assert_eq!(loaded.schema(), orig.schema());
        for row in 0..orig.row_count() {
            assert_eq!(loaded.row(row), orig.row(row), "row {row}");
        }
    }

    #[test]
    fn huge_declared_lengths_fail_without_reserving_them() {
        // Found by the DVET mutation fuzzer: a row count of 2^31 made the
        // reader reserve 16 GiB up front and abort on allocation failure;
        // a dictionary length of 2^31 did the same with 48 GiB of strings.
        let header = |rows: u64, dtype: DataType| {
            let mut buf = MAGIC.to_vec();
            buf.extend_from_slice(&VERSION.to_le_bytes());
            buf.extend_from_slice(&1u32.to_le_bytes());
            buf.extend_from_slice(&1u32.to_le_bytes());
            buf.extend_from_slice(&[b'k', dtype_tag(dtype), 0]);
            buf.extend_from_slice(&rows.to_le_bytes());
            buf.push(0); // no null bitmap
            buf
        };
        let ints = header(1 << 31, DataType::Int64);
        assert!(matches!(
            read_table(&mut ints.as_slice()),
            Err(PersistError::Io(_))
        ));
        let mut strs = header(1 << 31, DataType::Str);
        strs.extend_from_slice(&(1u32 << 31).to_le_bytes());
        assert!(matches!(
            read_table(&mut strs.as_slice()),
            Err(PersistError::Io(_))
        ));
    }

    #[test]
    fn roundtrip_preserves_distinct_counts() {
        let orig = sample_table();
        let loaded = roundtrip(&orig);
        for i in 0..orig.schema().len() {
            assert_eq!(
                loaded.column(i).exact_distinct(),
                orig.column(i).exact_distinct(),
                "column {i}"
            );
        }
    }

    #[test]
    fn roundtrip_large_generated_column() {
        let values: Vec<u64> = (0..200_000u64).map(|i| i % 1234).collect();
        let orig = Table::from_generated("v", &values);
        let loaded = roundtrip(&orig);
        assert_eq!(loaded.column(0).exact_distinct(), 1234);
        assert_eq!(loaded.row(199_999), orig.row(199_999));
    }

    #[test]
    fn bad_magic_detected() {
        let mut buf = Vec::new();
        write_table(&sample_table(), &mut buf).unwrap();
        buf[0] = b'X';
        assert!(matches!(
            read_table(&mut buf.as_slice()),
            Err(PersistError::BadMagic)
        ));
    }

    #[test]
    fn bad_version_detected() {
        let mut buf = Vec::new();
        write_table(&sample_table(), &mut buf).unwrap();
        buf[4] = 99;
        assert!(matches!(
            read_table(&mut buf.as_slice()),
            Err(PersistError::BadVersion(_))
        ));
    }

    #[test]
    fn payload_corruption_trips_checksum() {
        let mut buf = Vec::new();
        write_table(&sample_table(), &mut buf).unwrap();
        // Flip a byte inside the first column's payload (int values start
        // after header + nrows; find a deterministic offset safely past
        // the schema block).
        let headerish = 4 + 4 + 4; // magic, version, ncols
        let offset = buf.len() / 2;
        assert!(offset > headerish);
        buf[offset] ^= 0xFF;
        let err = read_table(&mut buf.as_slice()).unwrap_err();
        assert!(
            matches!(
                err,
                PersistError::ChecksumMismatch { .. } | PersistError::Corrupt(_)
            ),
            "unexpected error: {err}"
        );
    }

    #[test]
    fn truncated_file_is_io_error() {
        let mut buf = Vec::new();
        write_table(&sample_table(), &mut buf).unwrap();
        buf.truncate(buf.len() - 10);
        assert!(matches!(
            read_table(&mut buf.as_slice()),
            Err(PersistError::Io(_)) | Err(PersistError::ChecksumMismatch { .. })
        ));
    }

    #[test]
    fn file_helpers_roundtrip() {
        let dir = std::env::temp_dir().join("dve_persist_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.dvet");
        save_table(&sample_table(), &path).unwrap();
        let loaded = load_table(&path).unwrap();
        assert_eq!(loaded.row(0)[0], Value::Int64(1));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn empty_string_dictionary_and_null_strs() {
        let t = Table::new(
            Schema::new(vec![Field::nullable("s", DataType::Str)]),
            vec![Column::from_strs_opt(&[
                Some("a"),
                None,
                Some(""),
                Some("a"),
            ])],
        )
        .unwrap();
        let loaded = roundtrip(&t);
        assert_eq!(loaded.row(1)[0], Value::Null);
        assert_eq!(loaded.row(2)[0], Value::Str(String::new()));
        assert_eq!(loaded.column(0).exact_distinct(), 2);
    }

    #[test]
    fn stats_roundtrip_and_corruption() {
        use crate::analyze::AnalyzeOptions;
        use crate::catalog::build_table_stats;

        let values: Vec<u64> = (0..2_000u64).map(|i| i % 77).collect();
        let table = Table::from_generated("v", &values);
        let built = build_table_stats(
            &table,
            "t",
            &AnalyzeOptions {
                sampling_fraction: 0.2,
                estimator: "AE".into(),
            },
            42,
        )
        .unwrap();

        let dir = std::env::temp_dir().join("dve_stats_persist_test");
        std::fs::create_dir_all(&dir).unwrap();
        let table_path = dir.join("t.dvet");
        let stats_path = stats_path_for(&table_path);
        assert_eq!(stats_path, dir.join("t.dvet.stats.json"));

        save_table_stats(&built, &table_path).unwrap();
        let loaded = load_table_stats(&table_path).unwrap();
        assert_eq!(loaded, built, "struct round-trip");
        assert_eq!(loaded.to_json(), built.to_json(), "byte round-trip");
        // Saving the loaded stats reproduces the file bit for bit.
        let first = std::fs::read(&stats_path).unwrap();
        save_table_stats(&loaded, &table_path).unwrap();
        assert_eq!(std::fs::read(&stats_path).unwrap(), first);

        // Corrupting a payload byte trips the checksum.
        let mut bytes = first.clone();
        let idx = bytes.len() - 20;
        bytes[idx] = if bytes[idx] == b'1' { b'2' } else { b'1' };
        std::fs::write(&stats_path, &bytes).unwrap();
        assert!(matches!(
            load_table_stats(&table_path),
            Err(PersistError::ChecksumMismatch { .. }) | Err(PersistError::Corrupt(_))
        ));

        // Wrong version is rejected as such.
        let versioned = String::from_utf8(first.clone())
            .unwrap()
            .replace("\"version\":1", "\"version\":9");
        std::fs::write(&stats_path, versioned).unwrap();
        assert!(matches!(
            load_table_stats(&table_path),
            Err(PersistError::BadVersion(9))
        ));

        // Wrong format marker is rejected.
        let reformatted = String::from_utf8(first)
            .unwrap()
            .replace("dve-stats", "not-stats");
        std::fs::write(&stats_path, reformatted).unwrap();
        assert!(matches!(
            load_table_stats(&table_path),
            Err(PersistError::Corrupt(_))
        ));

        // Missing file surfaces as I/O.
        std::fs::remove_file(&stats_path).unwrap();
        assert!(matches!(
            load_table_stats(&table_path),
            Err(PersistError::Io(_))
        ));
    }

    #[test]
    fn errors_display() {
        assert!(PersistError::BadMagic.to_string().contains("magic"));
        assert!(PersistError::BadVersion(9).to_string().contains('9'));
        assert!(PersistError::ChecksumMismatch { column: "x".into() }
            .to_string()
            .contains('x'));
    }
}
