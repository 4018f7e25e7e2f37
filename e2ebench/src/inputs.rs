//! Seeded inputs: the harness's own generator, the scenarios each workload
//! draws from, the delta-op generator (built on `rfid_sim`'s streams) and
//! the harness's own op applier.
//!
//! Everything the program receives is made here from the run seed, so the
//! same seed gives the same inputs.

use rfid_core::AlgorithmKind;
use rfid_geometry::{Point, Rect};
use rfid_model::{Deployment, RadiusModel, Scenario, ScenarioKind};
use rfid_serve::{JobSpec, ScenarioDelta, Workload};
use rfid_sim::{dynamic_delta_stream, DynamicConfig, MobilityModel, MobilitySim};
use std::cmp::Ordering;
use std::collections::VecDeque;

/// splitmix64: small, seedable and independent of the program's RNG.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Derives an independent stream seed from the run seed.
pub fn mix(seed: u64, stream: u64) -> u64 {
    Rng::new(seed ^ stream.wrapping_mul(0xd6e8_feb8_6659_fd93)).next_u64()
}

/// The paper's density (λ_R = 14, λ_r = 6, 24 tags per reader) at `n`
/// readers, on a square of side 100·√(n/50); `n = 50` is §VI's setup.
pub fn paper_density(n: usize) -> Scenario {
    Scenario {
        kind: ScenarioKind::UniformRandom,
        n_readers: n,
        n_tags: 24 * n,
        region_side: 100.0 * (n as f64 / 50.0).sqrt(),
        radius_model: RadiusModel::paper_default(),
    }
}

pub fn generated_job(scenario: Scenario, seed: u64, algorithm: AlgorithmKind) -> JobSpec {
    let mut job = JobSpec::new(Workload::Generated { scenario, seed });
    job.algorithm = algorithm.label().to_string();
    job
}

pub fn explicit_job(deployment: Deployment, algorithm: AlgorithmKind) -> JobSpec {
    let mut job = JobSpec::new(Workload::Explicit { deployment });
    job.algorithm = algorithm.label().to_string();
    job
}

/// The tag order the service uses for explicit deployments: ascending
/// `(x, y)` under IEEE total order.
pub fn canonical_order(a: &Point, b: &Point) -> Ordering {
    a.x.total_cmp(&b.x).then_with(|| a.y.total_cmp(&b.y))
}

/// `d` with its tags in canonical order.
pub fn canonical(d: &Deployment) -> Deployment {
    let mut tags = d.tag_positions().to_vec();
    tags.sort_by(canonical_order);
    Deployment::new(
        d.region(),
        d.reader_positions().to_vec(),
        d.interference_radii().to_vec(),
        d.interrogation_radii().to_vec(),
        tags,
    )
}

/// Mean tag arrivals per edit: the lowest rate of the dynamic-arrival
/// table in the repository's `extensions` bench.
pub const ARRIVAL_RATE: f64 = 5.0;
/// Readers that move, the first of each deployment: the mobile-reader
/// floor of `examples/mobile_readers.rs` has 8.
pub const MOBILE_READERS: usize = 8;
/// Per-epoch random-walk step of a mobile reader: `mobile_readers.rs`'s
/// "walk σ=5" model.
pub const WALK_SIGMA: f64 = 5.0;
/// Slots (arrivals) and epochs (reader moves) drawn from the `rfid_sim`
/// streams at a time.
const STREAM_CHUNK: usize = 64;

/// One edit session's view of its deployment, kept in canonical tag order
/// so each op list can be drawn against the indices the service will see.
///
/// Each edit is one slot of `rfid_sim::dynamic_delta_stream` (Poisson tag
/// arrivals, `AddTag`) and one epoch of `MobilitySim::delta_stream` over
/// the mobile readers (`MoveReader`), preceded by as many tag departures
/// (`RemoveTag`, uniform over the present tags) as the slot has arrivals,
/// so the tag count stays constant. The sim streams have no departures;
/// they are the harness's own.
pub struct EditState {
    region: Rect,
    pub tags: Vec<Point>,
    pub readers: Vec<Point>,
    interference: Vec<f64>,
    interrogation: Vec<f64>,
    arrivals: VecDeque<Vec<ScenarioDelta>>,
    moves: VecDeque<Vec<ScenarioDelta>>,
}

impl EditState {
    pub fn new(canonical_base: &Deployment) -> Self {
        EditState {
            region: canonical_base.region(),
            tags: canonical_base.tag_positions().to_vec(),
            readers: canonical_base.reader_positions().to_vec(),
            interference: canonical_base.interference_radii().to_vec(),
            interrogation: canonical_base.interrogation_radii().to_vec(),
            arrivals: VecDeque::new(),
            moves: VecDeque::new(),
        }
    }

    /// The deployment as the service holds it after the edits so far.
    pub fn deployment(&self) -> Deployment {
        Deployment::new(
            self.region,
            self.readers.clone(),
            self.interference.clone(),
            self.interrogation.clone(),
            self.tags.clone(),
        )
    }

    /// The mobile readers at their current positions, without tags.
    fn mobile(&self) -> Deployment {
        let k = MOBILE_READERS.min(self.readers.len());
        Deployment::new(
            self.region,
            self.readers[..k].to_vec(),
            self.interference[..k].to_vec(),
            self.interrogation[..k].to_vec(),
            Vec::new(),
        )
    }

    /// Draws the next op list and advances the state past it. Removals
    /// come first so their indices address the canonical list.
    pub fn next_ops(&mut self, rng: &mut Rng) -> Vec<ScenarioDelta> {
        if self.arrivals.is_empty() {
            let config = DynamicConfig {
                arrival_rate: ARRIVAL_RATE,
                slots: STREAM_CHUNK,
                warmup: 0,
                seed: rng.next_u64(),
            };
            self.arrivals = dynamic_delta_stream(&self.mobile(), config).into();
        }
        if self.moves.is_empty() {
            let sim = MobilitySim {
                initial: self.mobile(),
                model: MobilityModel::RandomWalk { sigma: WALK_SIGMA },
                slots_per_epoch: 1,
                max_epochs: STREAM_CHUNK,
                seed: rng.next_u64(),
            };
            self.moves = sim.delta_stream(STREAM_CHUNK).into();
        }
        let arrivals = self.arrivals.pop_front().expect("stream refilled");
        let moves = self.moves.pop_front().expect("stream refilled");
        let mut ops = Vec::with_capacity(2 * arrivals.len() + moves.len());
        for _ in 0..arrivals.len() {
            let departed = rng.below(self.tags.len());
            self.tags.remove(departed);
            ops.push(ScenarioDelta::RemoveTag {
                tag: departed as u32,
            });
        }
        for op in arrivals.into_iter().chain(moves) {
            match op {
                ScenarioDelta::AddTag { x, y } => {
                    let p = Point::new(x, y);
                    let at = self
                        .tags
                        .partition_point(|q| canonical_order(q, &p) == Ordering::Less);
                    self.tags.insert(at, p);
                }
                ScenarioDelta::MoveReader { reader, x, y } => {
                    self.readers[reader as usize] = Point::new(x, y);
                }
                ref other => unreachable!("the sim streams emit no {other:?}"),
            }
            ops.push(op);
        }
        ops
    }
}

/// The harness's own reading of the op model: ops apply in order (removals
/// shift later tags down, arrivals append), then tags are put in canonical
/// order — the deployment the service must have scheduled.
pub fn apply_ops(d: &Deployment, ops: &[ScenarioDelta]) -> Result<Deployment, String> {
    let mut tags = d.tag_positions().to_vec();
    let mut readers = d.reader_positions().to_vec();
    for op in ops {
        match *op {
            ScenarioDelta::AddTag { x, y } => tags.push(Point::new(x, y)),
            ScenarioDelta::RemoveTag { tag } if (tag as usize) < tags.len() => {
                tags.remove(tag as usize);
            }
            ScenarioDelta::MoveReader { reader, x, y } if (reader as usize) < readers.len() => {
                readers[reader as usize] = Point::new(x, y);
            }
            ref other => return Err(format!("op outside the harness's edit model: {other:?}")),
        }
    }
    tags.sort_by(canonical_order);
    Ok(Deployment::new(
        d.region(),
        readers,
        d.interference_radii().to_vec(),
        d.interrogation_radii().to_vec(),
        tags,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tracked_state_matches_the_applier() {
        let base = canonical(&paper_density(20).generate(3));
        let mut state = EditState::new(&base);
        let mut rng = Rng::new(9);
        let mut current = base;
        for _ in 0..20 {
            let ops = state.next_ops(&mut rng);
            current = apply_ops(&current, &ops).unwrap();
            assert_eq!(current.tag_positions(), &state.tags[..]);
            assert_eq!(current.reader_positions(), &state.readers[..]);
        }
    }

    #[test]
    fn harness_applier_matches_the_delta_crate() {
        let base = canonical(&paper_density(20).generate(4));
        let mut state = EditState::new(&base);
        let ops = state.next_ops(&mut Rng::new(1));
        let ours = apply_ops(&base, &ops).unwrap();
        let theirs = canonical(&rfid_delta::apply_ops(&base, &ops).unwrap().deployment);
        assert_eq!(ours, theirs);
    }
}
