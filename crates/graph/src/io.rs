//! Graph and matrix file I/O.
//!
//! The evaluation datasets in this repository are synthesised, but a
//! downstream user will want to run the simulator on *real* graphs. This
//! module reads the two formats those graphs usually come in:
//!
//! - **MatrixMarket coordinate format** (`.mtx`) — the SuiteSparse and
//!   scientific-computing standard; `%%MatrixMarket matrix coordinate ...`
//!   with a dimension line and 1-based `row col [value]` entries, honouring
//!   the `symmetric` qualifier;
//! - **edge lists** — one `src dst [weight]` pair per line, `#` comments,
//!   0-based, as exported by SNAP and most graph tools.
//!
//! Both loaders return a [`Coo`]; writers for round-tripping are included.
//! Both refuse a graph of more than [`MAX_NODES`] nodes before anything is
//! sized by its node count.

use hymm_sparse::{Coo, SparseError};
use std::fmt;
use std::io::{BufRead, BufReader, Read, Write};

/// The most nodes a loaded graph may have: above Yelp's 716 847 (the
/// largest Table II graph), and far below what a one-line file could
/// otherwise make the feature synthesis allocate.
pub const MAX_NODES: usize = 1 << 20;

/// Errors produced while parsing graph files.
#[derive(Debug)]
#[non_exhaustive]
pub enum IoError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// The file violates the expected format.
    Parse {
        /// 1-based line number.
        line: usize,
        /// What went wrong.
        message: String,
    },
    /// The parsed coordinates were inconsistent with the declared shape.
    Sparse(SparseError),
    /// The file declares (Matrix Market) or implies (edge list) more than
    /// [`MAX_NODES`] nodes.
    TooManyNodes {
        /// 1-based line number of the dimension line or the edge.
        line: usize,
        /// The declared or implied node count.
        nodes: usize,
    },
}

impl fmt::Display for IoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IoError::Io(e) => write!(f, "i/o error: {e}"),
            IoError::Parse { line, message } => write!(f, "parse error at line {line}: {message}"),
            IoError::Sparse(e) => write!(f, "inconsistent matrix: {e}"),
            IoError::TooManyNodes { line, nodes } => write!(
                f,
                "line {line}: {nodes} nodes exceed the limit of {MAX_NODES}"
            ),
        }
    }
}

impl std::error::Error for IoError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            IoError::Io(e) => Some(e),
            IoError::Sparse(e) => Some(e),
            IoError::Parse { .. } | IoError::TooManyNodes { .. } => None,
        }
    }
}

impl From<std::io::Error> for IoError {
    fn from(e: std::io::Error) -> Self {
        IoError::Io(e)
    }
}

impl From<SparseError> for IoError {
    fn from(e: SparseError) -> Self {
        IoError::Sparse(e)
    }
}

/// Reads a MatrixMarket coordinate file.
///
/// Supports `general` and `symmetric` qualifiers with `real`, `integer` or
/// `pattern` fields (pattern entries get weight 1.0). Symmetric entries are
/// mirrored (diagonal entries are not duplicated).
///
/// # Errors
///
/// Returns [`IoError::Parse`] on malformed headers, counts or entries,
/// [`IoError::TooManyNodes`] if either dimension exceeds [`MAX_NODES`], and
/// [`IoError::Sparse`] if coordinates exceed the declared dimensions.
pub fn read_matrix_market<R: Read>(reader: R) -> Result<Coo, IoError> {
    let mut lines = BufReader::new(reader).lines().enumerate();

    // Header line.
    let (hline, header) = loop {
        match lines.next() {
            Some((i, line)) => {
                let line = line?;
                if !line.trim().is_empty() {
                    break (i + 1, line);
                }
            }
            None => {
                return Err(IoError::Parse {
                    line: 0,
                    message: "empty file".to_string(),
                })
            }
        }
    };
    let header_lc = header.to_ascii_lowercase();
    if !header_lc.starts_with("%%matrixmarket matrix coordinate") {
        return Err(IoError::Parse {
            line: hline,
            message: format!("unsupported header {header:?}"),
        });
    }
    let symmetric = header_lc.contains("symmetric");
    let pattern = header_lc.contains("pattern");

    // Dimension line (first non-comment line).
    let (dline, dims) = loop {
        match lines.next() {
            Some((i, line)) => {
                let line = line?;
                let t = line.trim();
                if !t.is_empty() && !t.starts_with('%') {
                    break (i + 1, t.to_string());
                }
            }
            None => {
                return Err(IoError::Parse {
                    line: hline,
                    message: "missing dimension line".to_string(),
                })
            }
        }
    };
    let mut parts = dims.split_whitespace();
    let parse_dim = |p: Option<&str>, what: &str| -> Result<usize, IoError> {
        p.ok_or_else(|| IoError::Parse {
            line: dline,
            message: format!("missing {what}"),
        })?
        .parse()
        .map_err(|_| IoError::Parse {
            line: dline,
            message: format!("bad {what}"),
        })
    };
    let rows = parse_dim(parts.next(), "row count")?;
    let cols = parse_dim(parts.next(), "column count")?;
    let nnz = parse_dim(parts.next(), "entry count")?;
    if rows.max(cols) > MAX_NODES {
        return Err(IoError::TooManyNodes {
            line: dline,
            nodes: rows.max(cols),
        });
    }

    let mut coo = Coo::new(rows, cols)?;
    let mut seen = 0usize;
    for (i, line) in lines {
        let line = line?;
        let t = line.trim();
        if t.is_empty() || t.starts_with('%') {
            continue;
        }
        let mut parts = t.split_whitespace();
        let r: usize = parse_dim(parts.next(), "row index").map_err(|_| IoError::Parse {
            line: i + 1,
            message: "bad row index".to_string(),
        })?;
        let c: usize = parse_dim(parts.next(), "column index").map_err(|_| IoError::Parse {
            line: i + 1,
            message: "bad column index".to_string(),
        })?;
        if r == 0 || c == 0 {
            return Err(IoError::Parse {
                line: i + 1,
                message: "MatrixMarket indices are 1-based".to_string(),
            });
        }
        let v: f32 = if pattern {
            1.0
        } else {
            parts
                .next()
                .ok_or_else(|| IoError::Parse {
                    line: i + 1,
                    message: "missing value".to_string(),
                })?
                .parse()
                .map_err(|_| IoError::Parse {
                    line: i + 1,
                    message: "bad value".to_string(),
                })?
        };
        coo.push(r - 1, c - 1, v)?;
        if symmetric && r != c {
            coo.push(c - 1, r - 1, v)?;
        }
        seen += 1;
    }
    if seen != nnz {
        return Err(IoError::Parse {
            line: dline,
            message: format!("declared {nnz} entries but found {seen}"),
        });
    }
    Ok(coo)
}

/// Writes a matrix in MatrixMarket `coordinate real general` format.
///
/// # Errors
///
/// Returns any underlying I/O error.
pub fn write_matrix_market<W: Write>(mut writer: W, m: &Coo) -> Result<(), IoError> {
    writeln!(writer, "%%MatrixMarket matrix coordinate real general")?;
    writeln!(writer, "{} {} {}", m.rows(), m.cols(), m.nnz())?;
    for (r, c, v) in m.iter() {
        writeln!(writer, "{} {} {}", r + 1, c + 1, v)?;
    }
    Ok(())
}

/// Reads a 0-based edge list (`src dst [weight]`, `#` comments) into a
/// square adjacency matrix sized by the largest node id; `symmetrize` adds
/// the reverse of every edge.
///
/// # Errors
///
/// Returns [`IoError::Parse`] on malformed lines and [`IoError::Parse`] with
/// line 0 if the file contains no edges, and [`IoError::TooManyNodes`] at
/// the first edge naming a node id of [`MAX_NODES`] or more.
pub fn read_edge_list<R: Read>(reader: R, symmetrize: bool) -> Result<Coo, IoError> {
    let mut edges: Vec<(usize, usize, f32)> = Vec::new();
    let mut max_node = 0usize;
    for (i, line) in BufReader::new(reader).lines().enumerate() {
        let line = line?;
        let t = line.trim();
        if t.is_empty() || t.starts_with('#') || t.starts_with('%') {
            continue;
        }
        let mut parts = t.split_whitespace();
        let mut next_num = |what: &str| -> Result<usize, IoError> {
            parts
                .next()
                .ok_or_else(|| IoError::Parse {
                    line: i + 1,
                    message: format!("missing {what}"),
                })?
                .parse()
                .map_err(|_| IoError::Parse {
                    line: i + 1,
                    message: format!("bad {what}"),
                })
        };
        let s = next_num("source")?;
        let d = next_num("destination")?;
        let w: f32 = match parts.next() {
            Some(tok) => tok.parse().map_err(|_| IoError::Parse {
                line: i + 1,
                message: "bad weight".to_string(),
            })?,
            None => 1.0,
        };
        if s.max(d) >= MAX_NODES {
            return Err(IoError::TooManyNodes {
                line: i + 1,
                nodes: s.max(d).saturating_add(1),
            });
        }
        max_node = max_node.max(s).max(d);
        edges.push((s, d, w));
    }
    if edges.is_empty() {
        return Err(IoError::Parse {
            line: 0,
            message: "no edges in file".to_string(),
        });
    }
    let n = max_node + 1;
    let mut coo = Coo::new(n, n)?;
    for (s, d, w) in edges {
        coo.push(s, d, w)?;
        if symmetrize && s != d {
            coo.push(d, s, w)?;
        }
    }
    Ok(coo)
}

/// Writes a 0-based edge list with weights.
///
/// # Errors
///
/// Returns any underlying I/O error.
pub fn write_edge_list<W: Write>(mut writer: W, m: &Coo) -> Result<(), IoError> {
    for (r, c, v) in m.iter() {
        writeln!(writer, "{r} {c} {v}")?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matrix_market_round_trip() {
        let m = Coo::from_triplets(3, 4, [(0, 1, 2.5), (2, 3, -1.0)]).unwrap();
        let mut buf = Vec::new();
        write_matrix_market(&mut buf, &m).unwrap();
        let back = read_matrix_market(&buf[..]).unwrap();
        assert_eq!(back.rows(), 3);
        assert_eq!(back.cols(), 4);
        let got: Vec<_> = back.iter().collect();
        assert_eq!(got, vec![(0, 1, 2.5), (2, 3, -1.0)]);
    }

    #[test]
    fn matrix_market_symmetric_mirrors_entries() {
        let text = "%%MatrixMarket matrix coordinate real symmetric\n\
                    % a comment\n\
                    3 3 2\n\
                    2 1 5.0\n\
                    3 3 1.0\n";
        let m = read_matrix_market(text.as_bytes()).unwrap();
        // off-diagonal mirrored, diagonal not duplicated
        assert_eq!(m.nnz(), 3);
        let got: Vec<_> = m.iter().collect();
        assert!(got.contains(&(1, 0, 5.0)));
        assert!(got.contains(&(0, 1, 5.0)));
        assert!(got.contains(&(2, 2, 1.0)));
    }

    #[test]
    fn matrix_market_pattern_gets_unit_weights() {
        let text = "%%MatrixMarket matrix coordinate pattern general\n2 2 1\n1 2\n";
        let m = read_matrix_market(text.as_bytes()).unwrap();
        assert_eq!(m.iter().next(), Some((0, 1, 1.0)));
    }

    #[test]
    fn matrix_market_rejects_bad_header() {
        let err = read_matrix_market("%%MatrixMarket matrix array real\n".as_bytes());
        assert!(matches!(err, Err(IoError::Parse { .. })));
    }

    #[test]
    fn matrix_market_rejects_zero_based_indices() {
        let text = "%%MatrixMarket matrix coordinate real general\n2 2 1\n0 1 1.0\n";
        let err = read_matrix_market(text.as_bytes());
        assert!(matches!(err, Err(IoError::Parse { .. })));
    }

    #[test]
    fn matrix_market_checks_entry_count() {
        let text = "%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1.0\n";
        let err = read_matrix_market(text.as_bytes());
        assert!(matches!(err, Err(IoError::Parse { .. })));
    }

    #[test]
    fn matrix_market_refuses_a_dimension_above_the_node_limit() {
        let text = "%%MatrixMarket matrix coordinate pattern general\n\
                    % declares three billion rows\n\
                    3000000000 3000000000 1\n\
                    1 2\n";
        let err = read_matrix_market(text.as_bytes()).unwrap_err();
        assert!(
            matches!(
                err,
                IoError::TooManyNodes {
                    line: 3,
                    nodes: 3_000_000_000
                }
            ),
            "{err:?}"
        );
        assert!(err.to_string().contains(&MAX_NODES.to_string()), "{err}");
        let wide = format!(
            "%%MatrixMarket matrix coordinate pattern general\n2 {} 1\n1 1\n",
            MAX_NODES + 1
        );
        assert!(matches!(
            read_matrix_market(wide.as_bytes()),
            Err(IoError::TooManyNodes { .. })
        ));
        let at_limit = format!(
            "%%MatrixMarket matrix coordinate pattern general\n{MAX_NODES} {MAX_NODES} 1\n1 2\n"
        );
        assert_eq!(
            read_matrix_market(at_limit.as_bytes()).unwrap().rows(),
            MAX_NODES
        );
    }

    #[test]
    fn edge_list_refuses_a_node_id_above_the_node_limit() {
        let err = read_edge_list("0 1\n0 4000000000\n".as_bytes(), true).unwrap_err();
        assert!(
            matches!(
                err,
                IoError::TooManyNodes {
                    line: 2,
                    nodes: 4_000_000_001
                }
            ),
            "{err:?}"
        );
        assert!(err.to_string().contains(&MAX_NODES.to_string()), "{err}");
        let over = format!("{MAX_NODES} 0\n");
        assert!(matches!(
            read_edge_list(over.as_bytes(), false),
            Err(IoError::TooManyNodes { .. })
        ));
        let at_limit = format!("{} 0\n", MAX_NODES - 1);
        assert_eq!(
            read_edge_list(at_limit.as_bytes(), false).unwrap().rows(),
            MAX_NODES
        );
    }

    #[test]
    fn edge_list_round_trip() {
        let m = Coo::from_triplets(4, 4, [(0, 1, 1.0), (2, 3, 0.5)]).unwrap();
        let mut buf = Vec::new();
        write_edge_list(&mut buf, &m).unwrap();
        let back = read_edge_list(&buf[..], false).unwrap();
        let got: Vec<_> = back.iter().collect();
        assert_eq!(got, vec![(0, 1, 1.0), (2, 3, 0.5)]);
    }

    #[test]
    fn edge_list_symmetrize_and_comments() {
        let text = "# snap-style comment\n0 1\n1 2 0.5\n";
        let m = read_edge_list(text.as_bytes(), true).unwrap();
        assert_eq!(m.rows(), 3);
        assert_eq!(m.nnz(), 4);
        let got: Vec<_> = m.iter().collect();
        assert!(got.contains(&(1, 0, 1.0)));
        assert!(got.contains(&(2, 1, 0.5)));
    }

    #[test]
    fn edge_list_rejects_garbage() {
        assert!(matches!(
            read_edge_list("0 x\n".as_bytes(), false),
            Err(IoError::Parse { .. })
        ));
        assert!(matches!(
            read_edge_list("".as_bytes(), false),
            Err(IoError::Parse { .. })
        ));
    }

    #[test]
    fn loaded_graph_feeds_the_simulator() {
        // end-to-end: parse an edge list, normalise, and make sure the
        // adjacency is usable downstream (square, symmetric).
        let text = "0 1\n1 2\n2 0\n";
        let adj = read_edge_list(text.as_bytes(), true).unwrap();
        let norm = crate::normalize::gcn_normalize(&adj).unwrap();
        assert_eq!(norm.rows(), 3);
        assert_eq!(norm.nnz(), 6 + 3); // edges + self-loops
    }
}
