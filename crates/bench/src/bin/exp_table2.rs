//! Table 2 — corpus file counts and sizes.
//!
//! Materialises a two-day corpus of all four maps (SVG + YAML trees),
//! prints the measured cells, and projects the full-period corpus using
//! the paper's file counts with the measured mean file sizes.

use ovh_weather::dataset::TempDir;
use ovh_weather::prelude::*;
use wm_bench::{compare_row, ExpOptions};

fn main() {
    let options = ExpOptions::from_args(0.25);
    options.banner("exp_table2", "Table 2 (collected and processed files)");
    let pipeline = options.pipeline();

    let dir = TempDir::new("exp-table2").expect("corpus dir");
    let store = DatasetStore::open(dir.path()).expect("corpus dir");

    let from = Timestamp::from_ymd(2022, 2, 14);
    let to = Timestamp::from_ymd(2022, 2, 16);
    println!("materialising two days ({from} .. {to}) of all maps...\n");
    let mut refused = std::collections::BTreeMap::new();
    for map in MapKind::ALL {
        let result = pipeline
            .materialize_window(&store, map, from, to)
            .expect("write corpus");
        refused.insert(
            map,
            (result.stats.failed, result.stats.failures_by_kind.clone()),
        );
    }

    let entries = store.entries().expect("scan corpus");
    let stats = CorpusStats::from_entries(&entries);
    println!("{}", stats.render_table());

    println!("unprocessable files (paper: fewer than one hundred per map over two years):");
    for (map, (failed, kinds)) in &refused {
        println!(
            "  {:<15} {} refused {:?}",
            map.display_name(),
            failed,
            kinds
        );
    }

    // Full-period projection: the paper's file counts x measured mean sizes.
    let paper_files = [
        (MapKind::Europe, 214_426u64, 214_340u64),
        (MapKind::World, 111_459, 111_431),
        (MapKind::NorthAmerica, 107_088, 107_024),
        (MapKind::AsiaPacific, 109_076, 109_024),
    ];
    let paper_gib = [
        (MapKind::Europe, 161.39, 20.16),
        (MapKind::World, 6.22, 0.83),
        (MapKind::NorthAmerica, 50.64, 6.23),
        (MapKind::AsiaPacific, 9.67, 1.24),
    ];
    println!("\nfull-period projection (paper file counts x measured mean file sizes):");
    for ((map, svg_files, yaml_files), (_, paper_svg_gib, paper_yaml_gib)) in
        paper_files.iter().zip(&paper_gib)
    {
        let svg = stats.cell(*map, FileKind::Svg);
        let yaml = stats.cell(*map, FileKind::Yaml);
        if svg.files == 0 || yaml.files == 0 {
            continue;
        }
        let projected_svg =
            *svg_files as f64 * (svg.bytes as f64 / svg.files as f64) / f64::powi(1024.0, 3);
        let projected_yaml =
            *yaml_files as f64 * (yaml.bytes as f64 / yaml.files as f64) / f64::powi(1024.0, 3);
        println!(
            "{}",
            compare_row(
                &format!("{} SVG GiB / YAML GiB", map.display_name()),
                &format!("{paper_svg_gib:.1} / {paper_yaml_gib:.2}"),
                &format!("{projected_svg:.1} / {projected_yaml:.2}")
            )
        );
    }
    println!(
        "\nnote: projections use the scale-{} network; at --scale full the Europe\n\
         map renders ~9x more elements per file.",
        options.scale
    );

    let svg = stats.total(FileKind::Svg);
    let yaml = stats.total(FileKind::Yaml);
    println!(
        "{}",
        compare_row(
            "SVG : YAML size ratio",
            "8.0x",
            &format!("{:.1}x", svg.bytes as f64 / yaml.bytes as f64)
        )
    );
}
