//! Loading a large `generate` output: the JSON reader must handle a
//! multi-megabyte job list in linear time and give back exactly the jobs
//! that were written.

use std::fs;
use std::time::Instant;

use elastisim_cli::commands::{cmd_generate, load_jobs};
use elastisim_cli::Args;

#[test]
fn seven_megabyte_generate_output_loads_and_round_trips() {
    let dir = std::env::temp_dir().join(format!("elastisim-load-jobs-{}", std::process::id()));
    fs::create_dir_all(&dir).unwrap();
    let path = dir.join("jobs.json");
    let path = path.to_str().unwrap();
    let generated = cmd_generate(
        &Args::parse([
            "generate",
            "--nodes",
            "128",
            "--jobs",
            "4500",
            "--malleable",
            "0.5",
            "--seed",
            "7",
            "--out",
            path,
        ])
        .unwrap(),
    )
    .unwrap();
    let bytes = fs::metadata(path).unwrap().len();
    assert!(bytes >= 7 << 20, "want a ≥ 7 MB file, got {bytes} bytes");

    let started = Instant::now();
    let (loaded, seed) = load_jobs(path, 1e12, None).unwrap();
    let elapsed = started.elapsed().as_secs_f64();
    fs::remove_dir_all(&dir).unwrap();

    assert_eq!(seed, None);
    assert_eq!(loaded.len(), 4500);
    assert!(
        loaded == generated,
        "loaded jobs differ from the written ones"
    );
    // A reader that rescans the rest of the input per character needs
    // minutes here; a single pass needs well under a second.
    assert!(elapsed < 60.0, "loading {bytes} bytes took {elapsed:.1} s");
}
