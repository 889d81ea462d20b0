//! Spans recorded by the benchmark around its calls into the fabric and
//! the layer replay. Kept in memory and written out when the run ends.

use crate::stats;
use rdb_common::ids::ClientId;
use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::io;
use std::path::Path;
use std::time::Instant;

/// A request: the session that submitted it and its `batch_seq`.
pub type Req = (ClientId, u64);

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the parent span in the merged list.
    pub parent: Option<usize>,
    pub req: Option<Req>,
}

/// One thread's spans, timed against a shared epoch.
pub struct Spans {
    epoch: Instant,
    pub spans: Vec<Span>,
}

impl Spans {
    pub fn new(epoch: Instant) -> Spans {
        Spans {
            epoch,
            spans: Vec::new(),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Record a finished span and return its index.
    pub fn push(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        req: Option<Req>,
    ) -> usize {
        let span = Span {
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent,
            req,
        };
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// Append `other`'s spans, shifting their parent indices.
    pub fn extend(&mut self, other: Spans) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Make every parentless `child` span a child of the `parent` span of
    /// the same request (spans recorded on different threads).
    pub fn link(&mut self, child: &str, parent: &str) {
        let by_req: HashMap<Req, usize> = self
            .spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == parent)
            .filter_map(|(i, s)| s.req.map(|r| (r, i)))
            .collect();
        for s in &mut self.spans {
            if s.name == child && s.parent.is_none() {
                s.parent = s.req.and_then(|r| by_req.get(&r).copied());
            }
        }
    }

    /// Per span name: (count, median self time µs, total self time µs).
    /// Self time is a span's duration minus the part its children cover.
    pub fn self_times(&self) -> BTreeMap<&'static str, (usize, f64, f64)> {
        let mut covered = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                let ps = &self.spans[p];
                let lo = s.start_ns.max(ps.start_ns);
                let hi = s.end_ns.min(ps.end_ns);
                covered[p] += hi.saturating_sub(lo);
            }
        }
        let mut by_name: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(&covered) {
            let own = (s.end_ns - s.start_ns).saturating_sub(*c);
            by_name.entry(s.name).or_default().push(own as f64 / 1e3);
        }
        by_name
            .into_iter()
            .map(|(n, v)| (n, (v.len(), stats::median(&v), v.iter().sum())))
            .collect()
    }

    /// Write one JSON object per span.
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        let mut out = String::with_capacity(self.spans.len() * 96);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let req = s.req.map_or("null".to_owned(), |(c, b)| {
                format!("\"{}.{}/{}\"", c.cluster.0, c.index, b)
            });
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"req\":{req}}}",
                s.name, s.start_ns, s.end_ns
            );
        }
        std::fs::write(path, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_linked_children() {
        let epoch = Instant::now();
        let at = |us: u64| epoch + Duration::from_micros(us);
        let req = (ClientId::new(0, 7), 3);
        let mut commits = Spans::new(epoch);
        commits.push("client.commit", at(0), at(100), None, Some(req));
        let mut submits = Spans::new(epoch);
        submits.push("client.submit", at(10), at(40), None, Some(req));
        commits.extend(submits);
        commits.link("client.submit", "client.commit");
        assert_eq!(commits.spans[1].parent, Some(0));
        let t = commits.self_times();
        assert_eq!(t["client.commit"], (1, 70.0, 70.0));
        assert_eq!(t["client.submit"], (1, 30.0, 30.0));
    }
}
