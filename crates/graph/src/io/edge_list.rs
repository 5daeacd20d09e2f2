//! SNAP-style text edge lists.
//!
//! The text format is one `u v` pair per line, whitespace separated, with
//! `#` / `%` comment lines — the format of the SNAP dumps the paper uses.

use std::fs::File;
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::path::Path;

use crate::builder::GraphBuilder;
use crate::csr::{Graph, NodeId};
use crate::error::GraphError;

/// Parse a text edge list from a reader. Lines starting with `#` or `%` and
/// blank lines are skipped; node ids must fit in `u32`, and a list of more
/// distinct edges than `u32` offsets address is a [`GraphError::Format`].
pub fn read_edge_list<R: BufRead>(reader: R) -> Result<Graph, GraphError> {
    let mut b = GraphBuilder::new();
    for (idx, line) in reader.lines().enumerate() {
        let line = line?;
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') || line.starts_with('%') {
            continue;
        }
        let mut it = line.split_whitespace();
        let u = parse_node(it.next(), idx + 1)?;
        let v = parse_node(it.next(), idx + 1)?;
        b.add_edge(u, v);
    }
    b.try_build()
        .map_err(|e| GraphError::Format(format!("edge list: {e}")))
}

fn parse_node(tok: Option<&str>, line: usize) -> Result<NodeId, GraphError> {
    let tok = tok.ok_or_else(|| GraphError::Parse {
        line,
        msg: "expected two node ids per line".into(),
    })?;
    tok.parse::<NodeId>().map_err(|e| GraphError::Parse {
        line,
        msg: format!("bad node id {tok:?}: {e}"),
    })
}

/// Load a text edge list from a file path.
pub fn load_edge_list<P: AsRef<Path>>(path: P) -> Result<Graph, GraphError> {
    read_edge_list(BufReader::new(File::open(path)?))
}

/// Write a graph as a text edge list (`u v` with `u < v`, one per line).
pub fn write_edge_list<W: Write>(graph: &Graph, writer: W) -> Result<(), GraphError> {
    let mut w = BufWriter::new(writer);
    writeln!(
        w,
        "# undirected graph: {} nodes, {} edges",
        graph.num_nodes(),
        graph.num_edges()
    )?;
    for (u, v) in graph.edges() {
        writeln!(w, "{u} {v}")?;
    }
    w.flush()?;
    Ok(())
}

/// Save a text edge list to a file path.
pub fn save_edge_list<P: AsRef<Path>>(graph: &Graph, path: P) -> Result<(), GraphError> {
    write_edge_list(graph, File::create(path)?)
}
