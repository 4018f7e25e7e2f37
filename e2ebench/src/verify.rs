//! The harness's own schedule verifier.
//!
//! It shares nothing with `rfid_core::verify` or the model's predicates:
//! every check is plain distance arithmetic on the deployment's positions
//! and radii, with a uniform grid of its own to keep it linear.
//!
//! * every slot's active readers are pairwise independent
//!   (‖v_i − v_j‖ > max(R_i, R_j));
//! * every served tag lies in exactly one active interrogation disk;
//! * every coverable tag is served exactly once;
//! * the reported uncoverable tags are exactly those no disk covers;
//! * Theorem 4: under a 1/ρ-approximate one-shot solver a slot flagged
//!   `fallback` (the solver's set had weight 0) cannot occur while a
//!   coverable tag is unread, since the single reader covering it has
//!   weight ≥ 1. Such slots are counted as zero-yield slots.

use rfid_core::{CoveringSchedule, SlotRecord};
use rfid_model::Deployment;

/// Violation messages kept per verdict; the count covers all of them.
const KEPT_MESSAGES: usize = 8;

#[derive(Debug, Default)]
pub struct Verdict {
    /// Broken model rules; any one makes the schedule wrong.
    pub violations: usize,
    /// The first few violations, for the error report.
    pub messages: Vec<String>,
    /// Fallback slots taken while a coverable tag was unread.
    pub zero_yield_slots: usize,
}

impl Verdict {
    fn violation(&mut self, message: impl FnOnce() -> String) {
        self.violations += 1;
        if self.messages.len() < KEPT_MESSAGES {
            self.messages.push(message());
        }
    }
}

fn dist_sq(d: &Deployment, reader: usize, x: f64, y: f64) -> f64 {
    let p = d.reader_positions()[reader];
    let (dx, dy) = (p.x - x, p.y - y);
    dx * dx + dy * dy
}

fn disk_holds(d: &Deployment, reader: usize, x: f64, y: f64) -> bool {
    let r = d.interrogation_radii()[reader];
    dist_sq(d, reader, x, y) <= r * r
}

/// Readers bucketed by a square cell at least as large as every radius
/// queried against it, so a 3×3 neighbourhood holds every candidate.
/// Cells are stored compressed: `items[start[c]..start[c + 1]]`.
struct Grid {
    cell: f64,
    x0: f64,
    y0: f64,
    cols: usize,
    rows: usize,
    start: Vec<usize>,
    items: Vec<usize>,
}

/// Cap on cells per side, so a tiny radius cannot blow up the grid.
const MAX_CELLS_PER_SIDE: f64 = 2048.0;

impl Grid {
    fn new(d: &Deployment, readers: &[usize], reach: f64) -> Grid {
        let pos = d.reader_positions();
        let (mut x0, mut y0, mut x1, mut y1) = (f64::MAX, f64::MAX, f64::MIN, f64::MIN);
        for &i in readers {
            x0 = x0.min(pos[i].x);
            y0 = y0.min(pos[i].y);
            x1 = x1.max(pos[i].x);
            y1 = y1.max(pos[i].y);
        }
        if readers.is_empty() {
            (x0, y0, x1, y1) = (0.0, 0.0, 0.0, 0.0);
        }
        let span = (x1 - x0).max(y1 - y0);
        let cell = reach.max(span / MAX_CELLS_PER_SIDE).max(1e-9);
        let cols = ((x1 - x0) / cell) as usize + 1;
        let rows = ((y1 - y0) / cell) as usize + 1;
        let mut grid = Grid {
            cell,
            x0,
            y0,
            cols,
            rows,
            start: vec![0; cols * rows + 1],
            items: vec![0; readers.len()],
        };
        let cells: Vec<usize> = readers
            .iter()
            .map(|&i| {
                let (cx, cy) = grid.cell_of(pos[i].x, pos[i].y);
                cy as usize * cols + cx as usize
            })
            .collect();
        for &c in &cells {
            grid.start[c + 1] += 1;
        }
        for c in 0..cols * rows {
            grid.start[c + 1] += grid.start[c];
        }
        let mut fill = grid.start.clone();
        for (&i, &c) in readers.iter().zip(&cells) {
            grid.items[fill[c]] = i;
            fill[c] += 1;
        }
        grid
    }

    fn cell_of(&self, x: f64, y: f64) -> (i64, i64) {
        (
            ((x - self.x0) / self.cell).floor() as i64,
            ((y - self.y0) / self.cell).floor() as i64,
        )
    }

    fn near(&self, x: f64, y: f64, mut f: impl FnMut(usize)) {
        self.find_near(x, y, |i| {
            f(i);
            false
        });
    }

    /// Visits candidates until `f` returns `true`; returns whether it did.
    fn find_near(&self, x: f64, y: f64, mut f: impl FnMut(usize) -> bool) -> bool {
        let (cx, cy) = self.cell_of(x, y);
        for gy in (cy - 1).max(0)..=(cy + 1).min(self.rows as i64 - 1) {
            let row = gy as usize * self.cols;
            let (lo, hi) = ((cx - 1).max(0), (cx + 1).min(self.cols as i64 - 1));
            if lo > hi {
                continue;
            }
            // Cells of one row are contiguous in `items`.
            let span = self.start[row + lo as usize]..self.start[row + hi as usize + 1];
            if self.items[span].iter().any(|&i| f(i)) {
                return true;
            }
        }
        false
    }
}

/// Checks `schedule` against `d`. `theorem4` enables the zero-yield count
/// (for the 1/ρ-approximate solvers, Algorithm 2 and GHC).
pub fn verify(d: &Deployment, schedule: &CoveringSchedule, theorem4: bool) -> Verdict {
    let mut verdict = Verdict::default();
    let (n, m) = (d.n_readers(), d.n_tags());
    let tags = d.tag_positions();
    let all: Vec<usize> = (0..n).collect();
    let r_max = d.interrogation_radii().iter().copied().fold(0.0, f64::max);
    let grid = Grid::new(d, &all, r_max);
    let coverable: Vec<bool> = tags
        .iter()
        .map(|t| grid.find_near(t.x, t.y, |i| disk_holds(d, i, t.x, t.y)))
        .collect();

    let mut reported = schedule.uncoverable.clone();
    reported.sort_unstable();
    reported.dedup();
    let expected: Vec<usize> = (0..m).filter(|&t| !coverable[t]).collect();
    if reported != expected || reported.len() != schedule.uncoverable.len() {
        verdict.violation(|| {
            format!(
                "uncoverable list has {} tags, {} tags lie in no disk",
                schedule.uncoverable.len(),
                expected.len()
            )
        });
    }

    let mut served_in = vec![0u32; m];
    let mut unread = m - expected.len();
    for (k, slot) in schedule.slots.iter().enumerate() {
        if slot.fallback && theorem4 && unread > 0 {
            verdict.zero_yield_slots += 1;
        }
        check_slot(d, k, slot, &mut served_in, &mut unread, &mut verdict);
    }
    for t in 0..m {
        if coverable[t] && served_in[t] == 0 {
            verdict.violation(|| format!("coverable tag {t} is never served"));
        }
    }
    verdict
}

fn check_slot(
    d: &Deployment,
    k: usize,
    slot: &SlotRecord,
    served_in: &mut [u32],
    unread: &mut usize,
    verdict: &mut Verdict,
) {
    let (n, m) = (d.n_readers(), d.n_tags());
    let mut active = slot.active.clone();
    active.sort_unstable();
    active.dedup();
    if active.len() != slot.active.len() || active.last().is_some_and(|&i| i >= n) {
        verdict.violation(|| format!("slot {k}: active set repeats a reader or names none"));
        return;
    }
    if slot.served.is_empty() {
        verdict.violation(|| format!("slot {k} serves no tag"));
    }
    let big = d.interference_radii();
    let reach = active.iter().map(|&i| big[i]).fold(0.0, f64::max);
    let grid = Grid::new(d, &active, reach);
    for &i in &active {
        let p = d.reader_positions()[i];
        grid.near(p.x, p.y, |j| {
            let r = big[i].max(big[j]);
            if i < j && dist_sq(d, j, p.x, p.y) <= r * r {
                verdict.violation(|| format!("slot {k}: readers {i} and {j} interfere"));
            }
        });
    }
    for &t in &slot.served {
        if t >= m {
            verdict.violation(|| format!("slot {k}: served tag {t} does not exist"));
            continue;
        }
        let p = d.tag_positions()[t];
        let mut disks = 0;
        grid.near(p.x, p.y, |i| {
            disks += usize::from(disk_holds(d, i, p.x, p.y))
        });
        if disks != 1 {
            verdict.violation(|| format!("slot {k}: served tag {t} lies in {disks} active disks"));
        }
        served_in[t] += 1;
        match served_in[t] {
            1 if disks > 0 => *unread = unread.saturating_sub(1),
            1 => {}
            _ => verdict.violation(|| format!("slot {k}: tag {t} served a second time")),
        }
    }
}

/// Hand-built defective schedules the verifier must reject, and a correct
/// one it must accept. Run before every benchmark run and by `cargo test`.
pub fn self_test() -> Result<(), String> {
    use rfid_geometry::{Point, Rect};
    let deployment = |readers: &[(f64, f64, f64, f64)], tags: &[(f64, f64)]| {
        Deployment::new(
            Rect::square(100.0),
            readers.iter().map(|r| Point::new(r.0, r.1)).collect(),
            readers.iter().map(|r| r.2).collect(),
            readers.iter().map(|r| r.3).collect(),
            tags.iter().map(|t| Point::new(t.0, t.1)).collect(),
        )
    };
    let slot = |active: &[usize], served: &[usize], fallback: bool| SlotRecord {
        active: active.to_vec(),
        served: served.to_vec(),
        fallback,
    };
    let schedule = |slots: Vec<SlotRecord>, uncoverable: &[usize]| CoveringSchedule {
        slots,
        uncoverable: uncoverable.to_vec(),
    };
    // Two independent readers, one tag in each disk, one tag in none.
    let plain = deployment(
        &[(10.0, 10.0, 5.0, 4.0), (30.0, 10.0, 5.0, 4.0)],
        &[(11.0, 10.0), (31.0, 10.0), (80.0, 80.0)],
    );
    // Readers 4 apart with R = 5: an RTc pair.
    let close = deployment(
        &[(10.0, 10.0, 5.0, 2.0), (14.0, 10.0, 5.0, 2.0)],
        &[(9.0, 10.0), (15.0, 10.0)],
    );
    // Independent readers (7 > R = 6) whose disks (r = 5) overlap at tag 0.
    let overlap = deployment(
        &[(10.0, 10.0, 6.0, 5.0), (17.0, 10.0, 6.0, 5.0)],
        &[(13.5, 10.0), (5.0, 10.0)],
    );
    let cases = [
        (
            "a correct schedule",
            &plain,
            schedule(vec![slot(&[0, 1], &[0, 1], false)], &[2]),
            true,
        ),
        (
            "an RTc pair",
            &close,
            schedule(vec![slot(&[0, 1], &[0, 1], false)], &[]),
            false,
        ),
        (
            "a served tag inside two active disks",
            &overlap,
            schedule(vec![slot(&[0, 1], &[0, 1], false)], &[]),
            false,
        ),
        (
            "a coverable tag never served",
            &plain,
            schedule(vec![slot(&[0], &[0], false)], &[2]),
            false,
        ),
        (
            "a tag served twice",
            &plain,
            schedule(
                vec![slot(&[0, 1], &[0, 1], false), slot(&[0], &[0], false)],
                &[2],
            ),
            false,
        ),
        (
            "a zero-yield fallback slot under ghc",
            &plain,
            schedule(vec![slot(&[0], &[0], false), slot(&[1], &[1], true)], &[2]),
            false,
        ),
        (
            "a wrong uncoverable list",
            &plain,
            schedule(vec![slot(&[0, 1], &[0, 1], false)], &[]),
            false,
        ),
    ];
    for (name, d, s, valid) in cases {
        let verdict = verify(d, &s, true);
        let accepted = verdict.violations == 0 && verdict.zero_yield_slots == 0;
        if accepted != valid {
            return Err(format!(
                "verifier self-test: {name} was {} ({:?})",
                if accepted { "accepted" } else { "rejected" },
                verdict
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rfid_core::{covering_schedule, AlgorithmKind, McsOptions};
    use rfid_model::{interference::interference_graph, Coverage};

    #[test]
    fn defective_schedules_are_rejected_and_a_correct_one_accepted() {
        self_test().unwrap();
    }

    #[test]
    fn ghc_schedules_pass() {
        let d = crate::inputs::paper_density(50).generate(11);
        let run = covering_schedule(
            &d,
            &Coverage::build(&d),
            &interference_graph(&d),
            &McsOptions::new().algorithm(AlgorithmKind::HillClimbing),
        )
        .unwrap();
        let verdict = verify(&d, &run.schedule, true);
        assert_eq!(verdict.violations, 0, "{verdict:?}");
        assert_eq!(verdict.zero_yield_slots, 0);
    }
}
