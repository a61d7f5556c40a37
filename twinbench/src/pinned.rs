//! Output digests pinned per (workload, seed) in `pinned.txt`: a change
//! that alters what a user reads off a run fails the benchmark's output
//! check, not only its own tests. A seed of `*` pins a digest that does
//! not depend on the seed.

const PINNED: &str = include_str!("../pinned.txt");

/// The pinned digest for `workload` at `seed`, when one is recorded.
fn pinned(workload: &str, seed: u64) -> Option<&'static str> {
    PINNED
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .find_map(|l| {
            let mut it = l.split_whitespace();
            let (w, s, d) = (it.next()?, it.next()?, it.next()?);
            let any_seed = s == "*" || s.parse::<u64>().ok()? == seed;
            (w == workload && any_seed).then_some(d)
        })
}

/// True unless a digest is pinned for (`workload`, `seed`) and differs
/// from `digest`. Unpinned seeds print the digest so it can be pinned.
pub fn matches(workload: &str, seed: u64, digest: &str) -> bool {
    match pinned(workload, seed) {
        Some(want) if want != digest => {
            eprintln!("twinbench: {workload} seed {seed}: digest {digest}, pinned {want}");
            false
        }
        Some(_) => true,
        None => {
            println!("unpinned: {workload} {seed} {digest}");
            true
        }
    }
}
