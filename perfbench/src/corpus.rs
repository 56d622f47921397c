//! Seeded inputs: simulated SVG corpora and synthetic YAML histories.
//!
//! Everything here is a pure function of the workload seed. Histories
//! are long (thousands of snapshots), so rendering every one through
//! the simulator would dominate set-up; instead a short rendered run
//! supplies templates whose timestamps are re-stamped onto the 5-minute
//! grid and whose loads get seeded per-snapshot jitter. Snapshot `i` of
//! a history can be regenerated on demand, so ground truth for a window
//! is rebuilt after timing instead of being held in memory.

use std::io;
use std::path::Path;

use ovh_weather::prelude::*;
use ovh_weather::simulator::faults::corrupt;
use ovh_weather::simulator::rng::hash_labels;
use ovh_weather::simulator::{CorpusFile, FaultKind};

/// Worker threads handed to every parallel entry point.
pub const THREADS: usize = 2;

/// Seed of the simulated world (topology, evolution, traffic model).
///
/// The world is a fixed fixture: a different world seed grows a
/// different-sized network, which would move every timing by more than
/// the benchmark's bounds. `--seed` picks which slice of that world a
/// run sees and everything drawn on top of it (start instant, injected
/// faults, load jitter, op sequence).
pub const WORLD_SEED: u64 = 42;

/// Days after 2022-02-01 a run may start on; the whole span lies
/// inside the collection window of all four maps.
const START_DAYS: u64 = 7;

/// First instant of a run's inputs, on the 5-minute grid.
pub fn start(seed: u64) -> Timestamp {
    let slot = hash_labels(seed, &[0x57A7]) % (START_DAYS * 288);
    Timestamp::from_ymd(2022, 2, 1) + Duration::from_minutes(5 * slot as i64)
}

pub fn world(scale: f64) -> Simulation {
    Simulation::new(SimulationConfig::scaled(WORLD_SEED, scale))
}

pub const MAPS: [MapKind; 4] = [
    MapKind::Europe,
    MapKind::World,
    MapKind::NorthAmerica,
    MapKind::AsiaPacific,
];

/// SplitMix64: the benchmark's own seeded stream for op draws.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x9E37_79B9_7F4A_7C15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n.max(1)
    }
}

/// The error kinds extraction must report for an injected fault (the
/// matrix pinned by the repository's extraction robustness tests).
pub fn expected_kinds(fault: FaultKind) -> &'static [&'static str] {
    match fault {
        FaultKind::TruncatedXml => &["invalid-xml"],
        FaultKind::MalformedAttribute => &["invalid-svg"],
        FaultKind::MissingRouters => &["dangling-link", "self-loop"],
    }
}

/// One input SVG with its ground truth.
#[derive(Debug, Clone)]
pub struct SvgInput {
    pub map: MapKind,
    pub timestamp: Timestamp,
    pub fault: Option<FaultKind>,
    /// Canonicalised ground truth (meaningful only when `fault` is `None`).
    pub truth: TopologySnapshot,
}

/// Roughly one file in `FAULT_EVERY` gets a seeded injected fault on
/// top of the simulator's own (rarer) corruption, so the refusal path
/// and its oracle run in every pass.
const FAULT_EVERY: u64 = 48;

/// Renders `hours` of every map at `scale` into `store` as SVG files.
/// Returns the inputs with their truth and the SVG bytes written.
pub fn render_svg_corpus(
    sim: &Simulation,
    store: &DatasetStore,
    seed: u64,
    hours: i64,
) -> io::Result<(Vec<SvgInput>, u64)> {
    let from = start(seed);
    let to = from + Duration::from_hours(hours);
    let mut inputs = Vec::new();
    let mut bytes = 0u64;
    for map in MAPS {
        for file in sim.corpus_between(map, from, to) {
            let file = inject_fault(file, seed);
            bytes += file.svg.len() as u64;
            store.write(map, FileKind::Svg, file.timestamp, file.svg.as_bytes())?;
            inputs.push(SvgInput {
                map,
                timestamp: file.timestamp,
                fault: file.fault,
                truth: canonical(file.truth),
            });
        }
    }
    Ok((inputs, bytes))
}

fn inject_fault(mut file: CorpusFile, seed: u64) -> CorpusFile {
    if file.fault.is_some() {
        return file;
    }
    let key = hash_labels(
        seed,
        &[0xBE_4C, file.map as u64, file.timestamp.unix() as u64],
    );
    if key.is_multiple_of(FAULT_EVERY) {
        let kind = FaultKind::ALL[(key / FAULT_EVERY % 3) as usize];
        file.svg = corrupt(&file.svg, kind, seed);
        file.fault = Some(kind);
    }
    file
}

pub fn canonical(mut snapshot: TopologySnapshot) -> TopologySnapshot {
    snapshot.canonicalize();
    snapshot
}

/// A synthetic Europe history on the 5-minute grid: `len` snapshots
/// from the seed's [`start`], derived from rendered templates.
#[derive(Debug, Clone)]
pub struct History {
    pub seed: u64,
    pub start: Timestamp,
    pub len: usize,
    templates: Vec<TopologySnapshot>,
}

pub const HISTORY_MAP: MapKind = MapKind::Europe;

/// Two hours of rendered templates: enough distinct topologies and
/// load patterns that consecutive snapshots differ beyond the jitter.
const TEMPLATE_HOURS: i64 = 2;

impl History {
    pub fn new(seed: u64, len: usize, templates: Vec<TopologySnapshot>) -> History {
        History {
            seed,
            start: start(seed),
            len,
            templates,
        }
    }

    /// The rendered ground truth of the seed's first [`TEMPLATE_HOURS`].
    pub fn render_templates(sim: &Simulation, seed: u64) -> Vec<TopologySnapshot> {
        let from = start(seed);
        sim.corpus_between(
            HISTORY_MAP,
            from,
            from + Duration::from_hours(TEMPLATE_HOURS),
        )
        .map(|f| f.truth)
        .collect()
    }

    pub fn timestamp(&self, index: usize) -> Timestamp {
        self.start + Duration::from_minutes(5 * index as i64)
    }

    /// First instant after the history.
    pub fn end(&self) -> Timestamp {
        self.timestamp(self.len)
    }

    /// Snapshot `index`: template `index mod T`, re-stamped, each link
    /// end's load moved by a seeded offset in `-10..=10` points.
    pub fn snapshot(&self, index: usize) -> TopologySnapshot {
        let template = &self.templates[index % self.templates.len()];
        let mut snapshot = template.clone();
        snapshot.timestamp = self.timestamp(index);
        for (l, link) in snapshot.links.iter_mut().enumerate() {
            for (e, end) in [&mut link.a, &mut link.b].into_iter().enumerate() {
                let key = hash_labels(self.seed, &[index as u64, l as u64, e as u64]);
                let load = i64::from(end.egress_load.percent()) + (key % 21) as i64 - 10;
                end.egress_load = Load::new(load.clamp(0, 100) as u8).expect("clamped to 0..=100");
            }
        }
        snapshot
    }

    /// Snapshots whose timestamps fall in `range`.
    pub fn in_range(&self, range: TimeRange) -> Vec<TopologySnapshot> {
        (0..self.len)
            .filter(|&i| range.contains(self.timestamp(i)))
            .map(|i| self.snapshot(i))
            .collect()
    }

    /// Writes the history as YAML. Returns the bytes written.
    pub fn write_yaml(&self, store: &DatasetStore) -> io::Result<u64> {
        let mut bytes = 0u64;
        for i in 0..self.len {
            let snapshot = self.snapshot(i);
            let text = to_yaml_string(&snapshot);
            bytes += text.len() as u64;
            store.write(
                HISTORY_MAP,
                FileKind::Yaml,
                snapshot.timestamp,
                text.as_bytes(),
            )?;
        }
        Ok(bytes)
    }
}

/// Writes snapshots as YAML into a corpus store rooted at `dir`.
pub fn write_snapshots(dir: &Path, snapshots: &[TopologySnapshot]) -> io::Result<()> {
    let store = DatasetStore::open(dir)?;
    for snapshot in snapshots {
        let text = to_yaml_string(snapshot);
        store.write(
            snapshot.map,
            FileKind::Yaml,
            snapshot.timestamp,
            text.as_bytes(),
        )?;
    }
    Ok(())
}

/// Reads back what [`write_snapshots`] wrote for `map`, oldest first.
pub fn read_snapshots(dir: &Path, map: MapKind) -> io::Result<Vec<TopologySnapshot>> {
    let store = DatasetStore::open_existing(dir)?;
    store
        .entries_of(map, FileKind::Yaml)?
        .iter()
        .map(|e| {
            let bytes = store.read(map, FileKind::Yaml, e.timestamp)?;
            from_yaml_str(&String::from_utf8_lossy(&bytes))
                .map_err(|err| io::Error::new(io::ErrorKind::InvalidData, err.to_string()))
        })
        .collect()
}

/// Recursively copies a directory tree.
pub fn copy_tree(from: &Path, to: &Path) -> io::Result<()> {
    std::fs::create_dir_all(to)?;
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        let target = to.join(entry.file_name());
        if entry.file_type()?.is_dir() {
            copy_tree(&entry.path(), &target)?;
        } else {
            std::fs::copy(entry.path(), &target)?;
        }
    }
    Ok(())
}

/// Total size of the files directly under `dir` (0 when missing).
pub fn dir_bytes(dir: &Path) -> io::Result<u64> {
    let mut total = 0;
    match std::fs::read_dir(dir) {
        Ok(entries) => {
            for entry in entries {
                let entry = entry?;
                if entry.file_type()?.is_file() {
                    total += entry.metadata()?.len();
                }
            }
            Ok(total)
        }
        Err(err) if err.kind() == io::ErrorKind::NotFound => Ok(0),
        Err(err) => Err(err),
    }
}

/// Every segment file and the manifest of `map`, by file name.
pub fn segment_image(
    store: &DatasetStore,
    map: MapKind,
) -> io::Result<std::collections::BTreeMap<String, Vec<u8>>> {
    let mut image = std::collections::BTreeMap::new();
    let dir = store.segments_dir(map);
    match std::fs::read_dir(&dir) {
        Ok(entries) => {
            for entry in entries {
                let entry = entry?;
                if entry.file_type()?.is_file() {
                    let name = entry.file_name().to_string_lossy().into_owned();
                    image.insert(name, std::fs::read(entry.path())?);
                }
            }
            Ok(image)
        }
        Err(err) if err.kind() == io::ErrorKind::NotFound => Ok(image),
        Err(err) => Err(err),
    }
}

/// Number of files that differ between two segment images.
pub fn image_diff(
    a: &std::collections::BTreeMap<String, Vec<u8>>,
    b: &std::collections::BTreeMap<String, Vec<u8>>,
) -> u64 {
    let mut names: std::collections::BTreeSet<&String> = a.keys().collect();
    names.extend(b.keys());
    names.into_iter().filter(|n| a.get(*n) != b.get(*n)).count() as u64
}
