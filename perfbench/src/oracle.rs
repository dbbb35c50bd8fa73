//! The correctness gate: every answer a run got is checked against the
//! `dyncon-spanning` oracle, outside the timed region. A wrong answer
//! fails the whole run.

use dyncon_spanning::NaiveDynamicGraph;

/// What one served request asked for.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Req {
    /// Delete these live edges, then insert these new ones.
    Write {
        deletes: Vec<(u32, u32)>,
        inserts: Vec<(u32, u32)>,
    },
    /// Connectivity lookups, either on a read view or as a query-only
    /// request.
    Read { pairs: Vec<(u32, u32)> },
}

/// Where a served answer sits in the commit order.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum At {
    /// A request committed in `version`. Within a version, requests
    /// apply in submission order: the benchmark submits as one client,
    /// so the server's canonical `(client, seq)` order is submission
    /// order.
    Round { version: u64, seq: usize },
    /// A read view of `version`: it sees every round up to and
    /// including `version`.
    View { version: u64 },
}

impl At {
    fn key(self) -> (u64, usize) {
        match self {
            At::Round { version, seq } => (version, seq),
            At::View { version } => (version, usize::MAX),
        }
    }
}

/// One request the server acknowledged.
#[derive(Clone, Debug)]
pub struct Served {
    /// Index into the run's request list.
    pub req: usize,
    pub at: At,
    /// Answers to the request's lookups, in order (empty for writes).
    pub answers: Vec<bool>,
}

/// Replay the acknowledged requests in commit order through the oracle,
/// starting from `preload` (committed as a version below every served
/// one), and check every answer. Returns the oracle's final state.
pub fn replay(
    n: usize,
    preload: &[(u32, u32)],
    reqs: &[Req],
    served: &[Served],
) -> Result<NaiveDynamicGraph, String> {
    let mut oracle = NaiveDynamicGraph::new(n);
    oracle.batch_insert(preload);
    let mut order: Vec<&Served> = served.iter().collect();
    order.sort_by_key(|s| (s.at.key(), s.req));
    for s in order {
        match &reqs[s.req] {
            Req::Write { deletes, inserts } => {
                oracle.batch_delete(deletes);
                oracle.batch_insert(inserts);
            }
            Req::Read { pairs } => {
                let expect = oracle.batch_connected(pairs);
                if expect != s.answers {
                    let i = (0..pairs.len())
                        .find(|&i| s.answers.get(i) != Some(&expect[i]))
                        .unwrap_or(0);
                    return Err(format!(
                        "request {} at {:?}: lookup {:?} answered {:?}, oracle says {}",
                        s.req,
                        s.at,
                        pairs[i],
                        s.answers.get(i),
                        expect[i]
                    ));
                }
            }
        }
    }
    Ok(oracle)
}

/// The oracle's edge set, normalised and sorted like `export_edges`.
pub fn sorted_edges(oracle: &NaiveDynamicGraph) -> Vec<(u32, u32)> {
    let mut edges: Vec<(u32, u32)> = oracle
        .edge_list()
        .into_iter()
        .map(crate::gen::norm)
        .collect();
    edges.sort_unstable();
    edges
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A run on a path 0-1-2-3: a view read, a write that cuts 1-2 and
    /// links 3-4 in the next version, and reads on both sides of it.
    fn run() -> (Vec<Req>, Vec<Served>) {
        let reqs = vec![
            Req::Read {
                pairs: vec![(0, 3), (4, 0)],
            },
            Req::Write {
                deletes: vec![(1, 2)],
                inserts: vec![(3, 4)],
            },
            Req::Read {
                pairs: vec![(1, 2), (2, 3), (3, 4)],
            },
            Req::Read {
                pairs: vec![(1, 2)],
            },
        ];
        let served = vec![
            Served {
                req: 0,
                at: At::View { version: 0 },
                answers: vec![true, false],
            },
            Served {
                req: 2,
                at: At::Round { version: 1, seq: 2 },
                answers: vec![false, true, true],
            },
            Served {
                req: 1,
                at: At::Round { version: 1, seq: 1 },
                answers: vec![],
            },
            // A view of the version before the write still sees the path.
            Served {
                req: 3,
                at: At::View { version: 0 },
                answers: vec![true],
            },
        ];
        (reqs, served)
    }

    const PATH: [(u32, u32); 3] = [(0, 1), (1, 2), (2, 3)];

    #[test]
    fn correct_answers_pass() {
        let (reqs, served) = run();
        let oracle = replay(5, &PATH, &reqs, &served).unwrap();
        assert_eq!(sorted_edges(&oracle), vec![(0, 1), (2, 3), (3, 4)]);
    }

    #[test]
    fn one_wrong_answer_fails_the_run() {
        let (reqs, mut served) = run();
        served[1].answers[0] = true;
        let Err(err) = replay(5, &PATH, &reqs, &served) else {
            panic!("the gate passed a wrong answer");
        };
        assert!(err.contains("(1, 2)"), "{err}");
    }

    #[test]
    fn commit_order_not_arrival_order_decides() {
        // The same answers attributed to the wrong version are wrong.
        let (reqs, mut served) = run();
        served[3].at = At::View { version: 1 };
        assert!(replay(5, &PATH, &reqs, &served).is_err());
    }
}
