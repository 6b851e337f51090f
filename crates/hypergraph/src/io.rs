//! Plain-text serialisation of hypergraphs and projected graphs.
//!
//! Formats (one record per line, `#`-prefixed comment lines skipped):
//!
//! * Hypergraph: `<multiplicity> <node> <node> [...]`
//! * Projected graph: `<u> <v> <weight>`
//!
//! Buffered readers/writers throughout (perf-book: buffer your I/O), and a
//! reusable line buffer instead of per-line allocation.

use crate::error::HypergraphError;
use crate::graph::ProjectedGraph;
use crate::hyperedge::Hyperedge;
use crate::hypergraph::Hypergraph;
use crate::node::NodeId;
use std::io::{BufRead, BufReader, BufWriter, Read, Write};
use std::path::Path;

/// Writes `h` in the line format described in the module docs, edges
/// in [`Hypergraph::sorted_edges`] order. Each line is assembled in one
/// reused buffer with [`push_u32`], the same bytes `write!` would give.
pub fn write_hypergraph<W: Write>(h: &Hypergraph, writer: W) -> Result<(), HypergraphError> {
    let mut out = BufWriter::new(writer);
    out.write_all(b"# marioh hypergraph v1: <multiplicity> <node...>\n")?;
    let mut line = Vec::with_capacity(64);
    for e in h.sorted_edges() {
        line.clear();
        push_u32(&mut line, h.multiplicity(e));
        for n in e.nodes() {
            line.push(b' ');
            push_u32(&mut line, n.0);
        }
        line.push(b'\n');
        out.write_all(&line)?;
    }
    out.flush()?;
    Ok(())
}

/// Appends the decimal digits of `v` to `out`: what `write!(out, "{v}")`
/// appends, without going through `fmt`.
pub fn push_u32(out: &mut Vec<u8>, mut v: u32) {
    let mut digits = [0u8; 10];
    let mut start = digits.len();
    loop {
        start -= 1;
        digits[start] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    out.extend_from_slice(&digits[start..]);
}

/// Reads a hypergraph written by [`write_hypergraph`].
pub fn read_hypergraph<R: Read>(reader: R) -> Result<Hypergraph, HypergraphError> {
    let mut h = Hypergraph::new(0);
    let mut input = BufReader::new(reader);
    let mut line = String::new();
    let mut lineno = 0usize;
    loop {
        line.clear();
        if input.read_line(&mut line)? == 0 {
            break;
        }
        lineno += 1;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        let mut tokens = trimmed.split_ascii_whitespace();
        let mult: u32 = parse_token(tokens.next(), lineno, "multiplicity")?;
        if mult == 0 {
            return Err(HypergraphError::Parse {
                line: lineno,
                message: "multiplicity must be positive".into(),
            });
        }
        let nodes: Vec<NodeId> = tokens
            .map(|t| parse_token(Some(t), lineno, "node id").map(NodeId))
            .collect::<Result<_, _>>()?;
        let edge = Hyperedge::new(nodes).ok_or_else(|| HypergraphError::Parse {
            line: lineno,
            message: "hyperedge needs at least 2 distinct nodes".into(),
        })?;
        h.add_edge_with_multiplicity(edge, mult);
    }
    Ok(h)
}

/// Writes `g` as `u v w` lines.
pub fn write_graph<W: Write>(g: &ProjectedGraph, writer: W) -> Result<(), HypergraphError> {
    let mut out = BufWriter::new(writer);
    writeln!(out, "# marioh projected graph v1: <u> <v> <weight>")?;
    for (u, v, w) in g.sorted_edge_list() {
        writeln!(out, "{u} {v} {w}")?;
    }
    out.flush()?;
    Ok(())
}

/// Reads a projected graph written by [`write_graph`].
pub fn read_graph<R: Read>(reader: R) -> Result<ProjectedGraph, HypergraphError> {
    let mut edges: Vec<(u32, u32, u32)> = Vec::new();
    let mut max_node = 0u32;
    let mut input = BufReader::new(reader);
    let mut line = String::new();
    let mut lineno = 0usize;
    loop {
        line.clear();
        if input.read_line(&mut line)? == 0 {
            break;
        }
        lineno += 1;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        let mut tokens = trimmed.split_ascii_whitespace();
        let u: u32 = parse_token(tokens.next(), lineno, "u")?;
        let v: u32 = parse_token(tokens.next(), lineno, "v")?;
        let w: u32 = parse_token(tokens.next(), lineno, "weight")?;
        if u == v {
            return Err(HypergraphError::Parse {
                line: lineno,
                message: format!("self-loop on node {u}"),
            });
        }
        if w == 0 {
            return Err(HypergraphError::Parse {
                line: lineno,
                message: "zero edge weight".into(),
            });
        }
        max_node = max_node.max(u).max(v);
        edges.push((u, v, w));
    }
    let mut g = ProjectedGraph::new(if edges.is_empty() { 0 } else { max_node + 1 });
    for (u, v, w) in edges {
        g.add_edge_weight(NodeId(u), NodeId(v), w);
    }
    Ok(g)
}

/// Convenience: write a hypergraph to a file path.
pub fn save_hypergraph<P: AsRef<Path>>(h: &Hypergraph, path: P) -> Result<(), HypergraphError> {
    write_hypergraph(h, std::fs::File::create(path)?)
}

/// Convenience: read a hypergraph from a file path.
pub fn load_hypergraph<P: AsRef<Path>>(path: P) -> Result<Hypergraph, HypergraphError> {
    read_hypergraph(std::fs::File::open(path)?)
}

/// Convenience: write a projected graph to a file path.
pub fn save_graph<P: AsRef<Path>>(g: &ProjectedGraph, path: P) -> Result<(), HypergraphError> {
    write_graph(g, std::fs::File::create(path)?)
}

/// Convenience: read a projected graph from a file path.
pub fn load_graph<P: AsRef<Path>>(path: P) -> Result<ProjectedGraph, HypergraphError> {
    read_graph(std::fs::File::open(path)?)
}

fn parse_token<T: std::str::FromStr>(
    token: Option<&str>,
    line: usize,
    what: &str,
) -> Result<T, HypergraphError> {
    let token = token.ok_or_else(|| HypergraphError::Parse {
        line,
        message: format!("missing {what}"),
    })?;
    token.parse().map_err(|_| HypergraphError::Parse {
        line,
        message: format!("invalid {what}: {token:?}"),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hyperedge::edge;
    use crate::projection::project;
    use proptest::prelude::*;

    fn sample() -> Hypergraph {
        let mut h = Hypergraph::new(0);
        h.add_edge_with_multiplicity(edge(&[0, 1, 2]), 2);
        h.add_edge(edge(&[1, 3]));
        h
    }

    /// The `fmt`-per-token writer [`write_hypergraph`] replaced: the
    /// oracle its bytes must equal.
    fn write_hypergraph_fmt(h: &Hypergraph) -> Vec<u8> {
        let mut out = Vec::new();
        writeln!(out, "# marioh hypergraph v1: <multiplicity> <node...>").unwrap();
        for e in h.sorted_edges() {
            write!(out, "{}", h.multiplicity(e)).unwrap();
            for n in e.nodes() {
                write!(out, " {n}").unwrap();
            }
            writeln!(out).unwrap();
        }
        out
    }

    fn written(h: &Hypergraph) -> Vec<u8> {
        let mut buf = Vec::new();
        write_hypergraph(h, &mut buf).unwrap();
        buf
    }

    #[test]
    fn push_u32_matches_fmt_at_the_edges_of_the_range() {
        let mut values = vec![0, 1, 9, 10, 99, 100, u32::MAX - 1, u32::MAX];
        values.extend((0..10).map(|p| 10u32.pow(p)));
        values.extend((1..10).map(|p| 10u32.pow(p) - 1));
        for v in values {
            let mut out = b"x".to_vec();
            push_u32(&mut out, v);
            assert_eq!(out, format!("x{v}").into_bytes());
        }
    }

    /// Node `u32::MAX` cannot be in a [`Hypergraph`] (its universe would
    /// be `u32::MAX + 1` nodes), so the largest id here is one below it;
    /// [`push_u32`] itself is checked at `u32::MAX` above.
    fn arb_hypergraph() -> impl Strategy<Value = Hypergraph> {
        let node = prop_oneof![0u32..64, (u32::MAX - 64)..u32::MAX, any::<u32>()]
            .prop_map(|n| n.min(u32::MAX - 1));
        let mult = prop_oneof![1u32..4, (u32::MAX - 2)..=u32::MAX, 1u32..1_000_000];
        proptest::collection::vec((proptest::collection::vec(node, 2..7), mult), 0..24).prop_map(
            |edges| {
                let mut h = Hypergraph::new(0);
                for (nodes, m) in edges {
                    if let Some(e) = Hyperedge::new(nodes.into_iter().map(NodeId)) {
                        // Re-adding an edge must not overflow its count.
                        if h.multiplicity(&e) == 0 {
                            h.add_edge_with_multiplicity(e, m);
                        }
                    }
                }
                h
            },
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn writer_matches_the_fmt_oracle(h in arb_hypergraph()) {
            let bytes = written(&h);
            prop_assert_eq!(&bytes, &write_hypergraph_fmt(&h));
            let back = read_hypergraph(bytes.as_slice()).unwrap();
            prop_assert_eq!(back.sorted_edges(), h.sorted_edges());
        }
    }

    #[test]
    fn hypergraph_round_trip() {
        let h = sample();
        let mut buf = Vec::new();
        write_hypergraph(&h, &mut buf).unwrap();
        let back = read_hypergraph(buf.as_slice()).unwrap();
        assert_eq!(back.unique_edge_count(), h.unique_edge_count());
        assert_eq!(back.total_edge_count(), h.total_edge_count());
        assert_eq!(back.multiplicity(&edge(&[0, 1, 2])), 2);
    }

    #[test]
    fn graph_round_trip() {
        let g = project(&sample());
        let mut buf = Vec::new();
        write_graph(&g, &mut buf).unwrap();
        let back = read_graph(buf.as_slice()).unwrap();
        assert_eq!(back.num_edges(), g.num_edges());
        assert_eq!(back.total_weight(), g.total_weight());
        assert_eq!(
            back.weight(NodeId(1), NodeId(2)),
            g.weight(NodeId(1), NodeId(2))
        );
    }

    #[test]
    fn comments_and_blank_lines_skipped() {
        let text = "# header\n\n2 0 1 2\n\n# trailing\n1 1 3\n";
        let h = read_hypergraph(text.as_bytes()).unwrap();
        assert_eq!(h.unique_edge_count(), 2);
    }

    #[test]
    fn rejects_malformed_lines() {
        assert!(matches!(
            read_hypergraph("x 0 1".as_bytes()),
            Err(HypergraphError::Parse { line: 1, .. })
        ));
        assert!(matches!(
            read_hypergraph("0 0 1".as_bytes()),
            Err(HypergraphError::Parse { line: 1, .. })
        ));
        assert!(matches!(
            read_hypergraph("1 5".as_bytes()),
            Err(HypergraphError::Parse { line: 1, .. })
        ));
        assert!(matches!(
            read_graph("1 1 4".as_bytes()),
            Err(HypergraphError::Parse { line: 1, .. })
        ));
        assert!(matches!(
            read_graph("1 2 0".as_bytes()),
            Err(HypergraphError::Parse { line: 1, .. })
        ));
        assert!(matches!(
            read_graph("1 2".as_bytes()),
            Err(HypergraphError::Parse { line: 1, .. })
        ));
    }

    #[test]
    fn graph_file_round_trip() {
        let dir = std::env::temp_dir().join("marioh-io-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("g.txt");
        let g = project(&sample());
        save_graph(&g, &path).unwrap();
        let back = load_graph(&path).unwrap();
        assert_eq!(back.total_weight(), g.total_weight());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn file_round_trip() {
        let dir = std::env::temp_dir().join("marioh-io-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("h.txt");
        let h = sample();
        save_hypergraph(&h, &path).unwrap();
        let back = load_hypergraph(&path).unwrap();
        assert_eq!(back.unique_edge_count(), 2);
        std::fs::remove_file(&path).ok();
    }
}
