//! Matrix Market (`.mtx`) reading and writing.
//!
//! Supports the `coordinate` format with `real`, `integer`, and `pattern`
//! fields and `general` / `symmetric` symmetry — the subset that covers the
//! SuiteSparse collection the paper evaluates on. Pattern matrices receive a
//! value of `1.0` per entry; symmetric matrices are expanded to general form.

use crate::{CooMatrix, Result, TensorError, Value};
use std::io::{BufRead, BufReader, Read, Write};
use std::path::Path;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Field {
    Real,
    Integer,
    Pattern,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Symmetry {
    General,
    Symmetric,
    SkewSymmetric,
}

fn parse_err(line: usize, msg: impl Into<String>) -> TensorError {
    TensorError::Parse {
        line,
        msg: msg.into(),
    }
}

/// The lines of a byte buffer as `BufRead::lines` yields them (`\n` or
/// `\r\n` stripped, no empty line after a final `\n`), without a `String`
/// per line. The buffer is checked as UTF-8 once; the lines before the first
/// invalid one are yielded, then the same `InvalidData` error
/// `BufRead::lines` gives on that line.
fn text_lines(bytes: &[u8]) -> impl Iterator<Item = std::io::Result<&str>> {
    let (valid, invalid) = match std::str::from_utf8(bytes) {
        Ok(text) => (text, None),
        Err(e) => {
            let line_start = bytes[..e.valid_up_to()]
                .iter()
                .rposition(|&b| b == b'\n')
                .map_or(0, |i| i + 1);
            let error = std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                "stream did not contain valid UTF-8",
            );
            let prefix = std::str::from_utf8(&bytes[..line_start]).expect("valid prefix");
            (prefix, Some(Err(error)))
        }
    };
    valid.lines().map(Ok).chain(invalid)
}

/// Reads a Matrix Market stream into a [`CooMatrix`].
///
/// A `&mut` reference may be passed for any `R: Read`. The stream is read
/// into memory once and parsed in a single pass over its lines.
///
/// # Errors
///
/// Returns [`TensorError::Parse`] on malformed input, [`TensorError::Io`] on
/// read failures, and the usual bound errors for out-of-range coordinates.
pub fn read_matrix_market<R: Read>(mut reader: R) -> Result<CooMatrix> {
    let mut bytes = Vec::new();
    reader.read_to_end(&mut bytes)?;
    let mut lines = text_lines(&bytes).enumerate();

    // Header line.
    let (mut lineno, header) = loop {
        match lines.next() {
            Some((i, line)) => {
                let line = line?;
                if !line.trim().is_empty() {
                    break (i + 1, line);
                }
            }
            None => return Err(parse_err(1, "empty stream")),
        }
    };
    let header_lc = header.to_ascii_lowercase();
    let mut toks = header_lc.split_whitespace();
    let mut tok = || toks.next().unwrap_or("");
    let (magic, object, format, field) = (tok(), tok(), tok(), tok());
    if field.is_empty() || magic != "%%matrixmarket" || object != "matrix" {
        return Err(parse_err(lineno, format!("bad header: {header}")));
    }
    if format != "coordinate" {
        return Err(parse_err(lineno, "only `coordinate` format is supported"));
    }
    let field = match field {
        "real" => Field::Real,
        "integer" => Field::Integer,
        "pattern" => Field::Pattern,
        other => return Err(parse_err(lineno, format!("unsupported field `{other}`"))),
    };
    let symmetry = match toks.next().unwrap_or("general") {
        "general" => Symmetry::General,
        "symmetric" => Symmetry::Symmetric,
        "skew-symmetric" => Symmetry::SkewSymmetric,
        other => return Err(parse_err(lineno, format!("unsupported symmetry `{other}`"))),
    };

    // Size line (skipping comments).
    let (nrows, ncols, nnz) = loop {
        let (i, line) = lines
            .next()
            .ok_or_else(|| parse_err(lineno, "missing size line"))?;
        lineno = i + 1;
        let t = line?.trim();
        if t.is_empty() || t.starts_with('%') {
            continue;
        }
        let mut parts = t.split_whitespace();
        let (Some(a), Some(b), Some(c), None) =
            (parts.next(), parts.next(), parts.next(), parts.next())
        else {
            return Err(parse_err(lineno, format!("bad size line: {t}")));
        };
        let parse = |s: &str| -> Result<usize> {
            s.parse()
                .map_err(|_| parse_err(lineno, format!("bad integer `{s}`")))
        };
        break (parse(a)?, parse(b)?, parse(c)?);
    };

    // The size line's `nnz` is client input: reserve no more entries than
    // the stream can hold (each takes at least `r c` and a line break, 4
    // bytes) and let the vector grow past that if it must.
    let most = bytes.len() / 4 + 1;
    let mut triplets: Vec<(usize, usize, Value)> = Vec::with_capacity(nnz.min(most));
    let mut seen = 0usize;
    for (i, line) in lines {
        lineno = i + 1;
        let t = line?.trim();
        if t.is_empty() || t.starts_with('%') {
            continue;
        }
        let mut parts = t.split_whitespace();
        let (row, col, value) = match (parts.next(), parts.next(), parts.next()) {
            (Some(row), Some(col), value) if value.is_some() || field == Field::Pattern => {
                (row, col, value)
            }
            _ => return Err(parse_err(lineno, format!("entry line too short: {t}"))),
        };
        let r: usize = row
            .parse()
            .map_err(|_| parse_err(lineno, format!("bad row `{row}`")))?;
        let c: usize = col
            .parse()
            .map_err(|_| parse_err(lineno, format!("bad col `{col}`")))?;
        if r == 0 || c == 0 {
            return Err(parse_err(lineno, "matrix market coordinates are 1-based"));
        }
        let v: Value = match (field, value) {
            // Parse directly at `Value` precision: the writer emits
            // shortest-round-trip `Value` decimals, and a correctly rounded
            // parse at the same width makes write→read bit-exact (parsing
            // as f64 and narrowing would double-round).
            (Field::Real | Field::Integer, Some(text)) => text
                .parse::<Value>()
                .map_err(|_| parse_err(lineno, format!("bad value `{text}`")))?,
            _ => 1.0,
        };
        let (r, c) = (r - 1, c - 1);
        triplets.push((r, c, v));
        match symmetry {
            Symmetry::General => {}
            Symmetry::Symmetric => {
                if r != c {
                    triplets.push((c, r, v));
                }
            }
            Symmetry::SkewSymmetric => {
                if r != c {
                    triplets.push((c, r, -v));
                }
            }
        }
        seen += 1;
    }
    if seen != nnz {
        return Err(parse_err(
            lineno,
            format!("expected {nnz} entries, found {seen}"),
        ));
    }
    // The text is no longer needed while the entries are sorted.
    drop(bytes);
    CooMatrix::from_triplets(nrows, ncols, triplets)
}

/// Reads a `.mtx` file from disk.
///
/// # Errors
///
/// See [`read_matrix_market`].
pub fn read_matrix_market_file(path: impl AsRef<Path>) -> Result<CooMatrix> {
    read_matrix_market(std::fs::File::open(path)?)
}

/// Writes a matrix in Matrix Market `coordinate real general` form.
///
/// A `&mut` reference may be passed for any `W: Write`.
///
/// # Errors
///
/// Returns [`TensorError::Io`] on write failures.
pub fn write_matrix_market<W: Write>(mut writer: W, m: &CooMatrix) -> Result<()> {
    writeln!(writer, "%%MatrixMarket matrix coordinate real general")?;
    writeln!(writer, "% generated by waco-tensor")?;
    writeln!(writer, "{} {} {}", m.nrows(), m.ncols(), m.nnz())?;
    for (r, c, v) in m.iter() {
        writeln!(writer, "{} {} {}", r + 1, c + 1, v)?;
    }
    Ok(())
}

/// Writes a matrix to a `.mtx` file on disk.
///
/// # Errors
///
/// See [`write_matrix_market`].
pub fn write_matrix_market_file(path: impl AsRef<Path>, m: &CooMatrix) -> Result<()> {
    write_matrix_market(std::fs::File::create(path)?, m)
}

/// Reads a 3-way sparse tensor in FROSTT `.tns` format: one
/// `i k l value` line per nonzero, 1-based coordinates, `#` comments.
/// Dimensions are inferred from the maximum coordinates.
///
/// A `&mut` reference may be passed for any `R: Read`.
///
/// # Errors
///
/// [`TensorError::Parse`] on malformed lines or non-3-way data,
/// [`TensorError::Io`] on read failures.
pub fn read_tns<R: Read>(reader: R) -> Result<crate::CooTensor3> {
    let buf = BufReader::new(reader);
    let mut quads: Vec<(usize, usize, usize, Value)> = Vec::new();
    let mut dims = [0usize; 3];
    for (i, line) in buf.lines().enumerate() {
        let lineno = i + 1;
        let line = line?;
        let t = line.trim();
        if t.is_empty() || t.starts_with('#') {
            continue;
        }
        let parts: Vec<&str> = t.split_whitespace().collect();
        if parts.len() != 4 {
            return Err(parse_err(
                lineno,
                format!("expected `i k l value`, got {} fields", parts.len()),
            ));
        }
        let mut c = [0usize; 3];
        for (d, p) in parts[..3].iter().enumerate() {
            let v: usize = p
                .parse()
                .map_err(|_| parse_err(lineno, format!("bad coordinate `{p}`")))?;
            if v == 0 {
                return Err(parse_err(lineno, ".tns coordinates are 1-based"));
            }
            c[d] = v - 1;
            dims[d] = dims[d].max(v);
        }
        let v: Value = parts[3]
            .parse::<f64>()
            .map_err(|_| parse_err(lineno, format!("bad value `{}`", parts[3])))?
            as Value;
        quads.push((c[0], c[1], c[2], v));
    }
    if quads.is_empty() {
        return Err(parse_err(1, "empty .tns tensor"));
    }
    crate::CooTensor3::from_quads(dims, quads)
}

/// Reads a `.tns` file from disk.
///
/// # Errors
///
/// See [`read_tns`].
pub fn read_tns_file(path: impl AsRef<Path>) -> Result<crate::CooTensor3> {
    read_tns(std::fs::File::open(path)?)
}

/// Writes a 3-way tensor in FROSTT `.tns` format.
///
/// A `&mut` reference may be passed for any `W: Write`.
///
/// # Errors
///
/// [`TensorError::Io`] on write failures.
pub fn write_tns<W: Write>(mut writer: W, t: &crate::CooTensor3) -> Result<()> {
    for (i, k, l, v) in t.iter() {
        writeln!(writer, "{} {} {} {}", i + 1, k + 1, l + 1, v)?;
    }
    Ok(())
}

/// Writes a `.tns` file to disk.
///
/// # Errors
///
/// See [`write_tns`].
pub fn write_tns_file(path: impl AsRef<Path>, t: &crate::CooTensor3) -> Result<()> {
    write_tns(std::fs::File::create(path)?, t)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_general_real() {
        let src = "%%MatrixMarket matrix coordinate real general\n\
                   % comment\n\
                   3 4 2\n\
                   1 1 1.5\n\
                   3 4 -2.0\n";
        let m = read_matrix_market(src.as_bytes()).unwrap();
        assert_eq!((m.nrows(), m.ncols(), m.nnz()), (3, 4, 2));
        assert_eq!(m.get(0, 0), Some(1.5));
        assert_eq!(m.get(2, 3), Some(-2.0));
    }

    #[test]
    fn parse_pattern_symmetric() {
        let src = "%%MatrixMarket matrix coordinate pattern symmetric\n\
                   3 3 2\n\
                   2 1\n\
                   3 3\n";
        let m = read_matrix_market(src.as_bytes()).unwrap();
        assert_eq!(m.nnz(), 3); // (1,0), (0,1) expanded, (2,2) diagonal
        assert_eq!(m.get(0, 1), Some(1.0));
        assert_eq!(m.get(1, 0), Some(1.0));
        assert_eq!(m.get(2, 2), Some(1.0));
    }

    #[test]
    fn parse_skew_symmetric() {
        let src = "%%MatrixMarket matrix coordinate real skew-symmetric\n\
                   2 2 1\n\
                   2 1 3.0\n";
        let m = read_matrix_market(src.as_bytes()).unwrap();
        assert_eq!(m.get(1, 0), Some(3.0));
        assert_eq!(m.get(0, 1), Some(-3.0));
    }

    #[test]
    fn roundtrip() {
        let mut rng = crate::gen::Rng64::seed_from(1);
        let m = crate::gen::uniform_random(20, 30, 0.1, &mut rng);
        let mut buf = Vec::new();
        write_matrix_market(&mut buf, &m).unwrap();
        let back = read_matrix_market(buf.as_slice()).unwrap();
        assert_eq!(back.nrows(), m.nrows());
        assert_eq!(back.ncols(), m.ncols());
        assert_eq!(back.pattern(), m.pattern());
        for ((_, _, a), (_, _, b)) in m.iter().zip(back.iter()) {
            assert!((a - b).abs() < 1e-6);
        }
    }

    #[test]
    fn rejects_bad_header() {
        assert!(read_matrix_market("garbage\n1 1 0\n".as_bytes()).is_err());
        assert!(read_matrix_market(
            "%%MatrixMarket matrix array real general\n1 1 1\n1.0\n".as_bytes()
        )
        .is_err());
    }

    #[test]
    fn rejects_wrong_count() {
        let src = "%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1.0\n";
        assert!(matches!(
            read_matrix_market(src.as_bytes()),
            Err(TensorError::Parse { .. })
        ));
    }

    #[test]
    fn huge_declared_nnz_is_a_parse_error() {
        for size in ["1 1 100000000000000", "1 1 18446744073709551615"] {
            let src = format!("%%MatrixMarket matrix coordinate real general\n{size}\n1 1 1.0\n");
            match read_matrix_market(src.as_bytes()) {
                Err(TensorError::Parse { line: 3, msg }) => {
                    assert!(msg.starts_with("expected "), "{msg}")
                }
                other => panic!("{size}: {other:?}"),
            }
        }
    }

    #[test]
    fn line_numbers_and_io_errors_survive() {
        let src = "\n%%MatrixMarket matrix coordinate real general\r\n% c\n2 2 1\n\n1 x 1.0\n";
        match read_matrix_market(src.as_bytes()) {
            Err(TensorError::Parse { line: 6, msg }) => assert_eq!(msg, "bad col `x`"),
            other => panic!("{other:?}"),
        }
        let src = b"%%MatrixMarket matrix coordinate real general\n1 1 1\n1 1 \xff\n";
        assert!(matches!(
            read_matrix_market(&src[..]),
            Err(TensorError::Io(e)) if e.kind() == std::io::ErrorKind::InvalidData
        ));
        let src = "%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1.0\n\n";
        match read_matrix_market(src.as_bytes()) {
            Err(TensorError::Parse { line: 4, .. }) => {}
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn rejects_zero_based() {
        let src = "%%MatrixMarket matrix coordinate real general\n2 2 1\n0 1 1.0\n";
        assert!(read_matrix_market(src.as_bytes()).is_err());
    }

    #[test]
    fn integer_field_parses() {
        let src = "%%MatrixMarket matrix coordinate integer general\n2 2 1\n1 2 7\n";
        let m = read_matrix_market(src.as_bytes()).unwrap();
        assert_eq!(m.get(0, 1), Some(7.0));
    }

    #[test]
    fn tns_parse_and_dims() {
        let src = "# a comment\n1 1 1 2.5\n3 2 4 -1.0\n";
        let t = read_tns(src.as_bytes()).unwrap();
        assert_eq!(t.dims(), [3, 2, 4]);
        assert_eq!(t.nnz(), 2);
        assert_eq!(t.entries()[0].val, 2.5);
    }

    #[test]
    fn tns_roundtrip() {
        let mut rng = crate::gen::Rng64::seed_from(2);
        let t = crate::gen::random_tensor3([6, 7, 8], 40, &mut rng);
        let mut buf = Vec::new();
        write_tns(&mut buf, &t).unwrap();
        let back = read_tns(buf.as_slice()).unwrap();
        assert_eq!(back.nnz(), t.nnz());
        for (a, b) in t.iter().zip(back.iter()) {
            assert_eq!((a.0, a.1, a.2), (b.0, b.1, b.2));
            assert!((a.3 - b.3).abs() < 1e-6);
        }
    }

    #[test]
    fn tns_rejects_bad_input() {
        assert!(read_tns("1 1 1\n".as_bytes()).is_err(), "3 fields");
        assert!(read_tns("0 1 1 5.0\n".as_bytes()).is_err(), "0-based");
        assert!(read_tns("".as_bytes()).is_err(), "empty");
        assert!(read_tns("1 1 x 5.0\n".as_bytes()).is_err(), "bad coord");
    }
}
