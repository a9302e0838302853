//! `streamer` — the command-line front end of the evaluation harness.
//!
//! ```text
//! streamer figure --kernel scale [--group 1b] [--csv] [--out DIR]
//! streamer group  1a|1b|1c|2a|2b [--kernel triad]
//! streamer table  NAME      (a table of `streamer::artifacts::ARTIFACTS`)
//! streamer scenario NAME    (a gated entry of the same list)
//! streamer analysis
//! streamer topology [--setup 1|2|dcpmm]
//! streamer all --out DIR
//! ```

use std::collections::HashMap;
use std::path::PathBuf;
use std::process::ExitCode;
use stream_bench::Kernel;
use streamer::artifacts::{Artifact, ARTIFACTS};
use streamer::dataflow;
use streamer::figures::FigureData;
use streamer::groups::TestGroup;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("error: {message}");
            eprintln!();
            eprintln!("{}", usage());
            ExitCode::FAILURE
        }
    }
}

/// Picks the name one command knows an artifact by, if it knows it.
type Pick = fn(&Artifact) -> Option<&'static str>;

/// The names `pick` gives the artifacts that have one, in list order.
fn names(pick: Pick) -> Vec<&'static str> {
    ARTIFACTS.iter().filter_map(pick).collect()
}

fn usage() -> String {
    format!(
        "usage:\n  streamer figure --kernel <copy|scale|add|triad> [--group <1a|1b|1c|2a|2b>] [--csv] [--out DIR]\n  streamer group <1a|1b|1c|2a|2b> [--kernel <name>]\n  streamer table <{}>\n  streamer scenario <{}>\n  streamer analysis\n  streamer topology [--setup <1|2|dcpmm>]\n  streamer all --out DIR",
        names(|a| a.table).join("|"),
        names(|a| a.scenario).join("|"),
    )
}

/// Parses `--key value` and `--flag` style options.
fn parse_options(args: &[String]) -> (Vec<String>, HashMap<String, String>) {
    let mut positional = Vec::new();
    let mut options = HashMap::new();
    let mut i = 0;
    while i < args.len() {
        let arg = &args[i];
        if let Some(key) = arg.strip_prefix("--") {
            let value = args.get(i + 1);
            match value {
                Some(v) if !v.starts_with("--") => {
                    options.insert(key.to_string(), v.clone());
                    i += 2;
                }
                _ => {
                    options.insert(key.to_string(), String::from("true"));
                    i += 1;
                }
            }
        } else {
            positional.push(arg.clone());
            i += 1;
        }
    }
    (positional, options)
}

fn run(args: &[String]) -> Result<(), String> {
    let Some(command) = args.first() else {
        return Err("missing command".to_string());
    };
    let rest = &args[1..];
    let (positional, options) = parse_options(rest);
    let name = |default| positional.first().map_or(default, String::as_str);
    match command.as_str() {
        "figure" => cmd_figure(&options),
        "group" => cmd_group(&positional, &options),
        "table" => {
            let artifact = find("table", name("headline"), |a| a.table)?;
            let output = artifact.build().map_err(|e| e.to_string())?;
            println!("{}", output.markdown);
            Ok(())
        }
        "scenario" => gated(find("scenario", name("restart"), |a| a.scenario)?),
        "analysis" => gated(find("artifact", "analysis", |a| Some(a.name))?),
        "topology" => cmd_topology(&options),
        "all" => cmd_all(&options),
        other => Err(format!("unknown command '{other}'")),
    }
}

/// The artifact `pick` names `name`.
fn find(kind: &str, name: &str, pick: Pick) -> Result<&'static Artifact, String> {
    ARTIFACTS
        .iter()
        .find(|a| pick(a) == Some(name))
        .ok_or_else(|| {
            let valid = names(pick);
            let (last, rest) = valid.split_last().unwrap_or((&"", &[]));
            format!(
                "unknown {kind} '{name}' (use {} or {last})",
                rest.join(", ")
            )
        })
}

/// Prints an artifact, writes its BENCH document into the current directory
/// and fails when its gate does.
fn gated(artifact: &Artifact) -> Result<(), String> {
    let output = artifact.build().map_err(|e| e.to_string())?;
    println!("{}", output.markdown);
    if let Some(extra) = &output.extra {
        println!("{extra}");
    }
    if let Some((file, bytes)) = &output.document {
        std::fs::write(file, bytes).map_err(|e| e.to_string())?;
        println!("wrote {file}");
    }
    if let Some(gate) = output.gate {
        if !gate.holds {
            return Err(gate.verdict);
        }
        println!("{}", gate.verdict);
    }
    Ok(())
}

fn kernel_from(options: &HashMap<String, String>) -> Result<Kernel, String> {
    let name = options.get("kernel").map(String::as_str).unwrap_or("triad");
    Kernel::parse(name).ok_or_else(|| format!("unknown kernel '{name}'"))
}

fn emit(path: Option<&PathBuf>, name: &str, content: &str) -> Result<(), String> {
    let Some(dir) = path else {
        println!("{content}");
        return Ok(());
    };
    std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    let file = dir.join(name);
    std::fs::write(&file, content).map_err(|e| e.to_string())?;
    println!("wrote {}", file.display());
    Ok(())
}

/// A sub-figure's file name and content, as CSV or as Markdown.
fn figure_file(figure: &FigureData, csv: bool) -> (String, String) {
    let stem = format!(
        "figure{}{}_{}",
        figure.figure,
        figure.subfigure,
        figure.kernel.name().to_lowercase()
    );
    if csv {
        (format!("{stem}.csv"), figure.to_csv())
    } else {
        (format!("{stem}.md"), figure.to_markdown())
    }
}

fn cmd_figure(options: &HashMap<String, String>) -> Result<(), String> {
    let kernel = kernel_from(options)?;
    let out = options.get("out").map(PathBuf::from);
    let groups: Vec<TestGroup> = match options.get("group") {
        Some(g) => vec![TestGroup::parse(g).ok_or_else(|| format!("unknown group '{g}'"))?],
        None => TestGroup::ALL.to_vec(),
    };
    for group in groups {
        let figure = FigureData::generate(kernel, group).map_err(|e| e.to_string())?;
        let (name, content) = figure_file(&figure, options.contains_key("csv"));
        emit(out.as_ref(), &name, &content)?;
    }
    Ok(())
}

fn cmd_group(positional: &[String], options: &HashMap<String, String>) -> Result<(), String> {
    let Some(group_name) = positional.first() else {
        return Err("group command needs a group id (1a..2b)".to_string());
    };
    let group =
        TestGroup::parse(group_name).ok_or_else(|| format!("unknown group '{group_name}'"))?;
    let kernel = kernel_from(options)?;
    let figure = FigureData::generate(kernel, group).map_err(|e| e.to_string())?;
    println!("{}", figure.to_markdown());
    println!("{}", dataflow::render_dataflow(group));
    Ok(())
}

fn cmd_topology(options: &HashMap<String, String>) -> Result<(), String> {
    let runtime = match options.get("setup").map(String::as_str) {
        None | Some("1") => cxl_pmem::RuntimeBuilder::setup1().build(),
        Some("2") => cxl_pmem::RuntimeBuilder::setup2().build(),
        Some("dcpmm") => cxl_pmem::RuntimeBuilder::dcpmm_baseline().build(),
        Some(other) => return Err(format!("unknown setup '{other}'")),
    };
    println!("{}", dataflow::render_migration_overview());
    println!("{}", dataflow::render_topology(&runtime));
    Ok(())
}

/// Writes every sub-figure (CSV and Markdown) and every artifact's markdown
/// into `--out`, then fails naming each gate that does not hold.
fn cmd_all(options: &HashMap<String, String>) -> Result<(), String> {
    let out = options
        .get("out")
        .map(PathBuf::from)
        .ok_or("'all' requires --out DIR")?;
    for kernel in Kernel::ALL {
        for group in TestGroup::ALL {
            let figure = FigureData::generate(kernel, group).map_err(|e| e.to_string())?;
            for csv in [true, false] {
                let (name, content) = figure_file(&figure, csv);
                emit(Some(&out), &name, &content)?;
            }
        }
    }
    let mut failed = Vec::new();
    for artifact in &ARTIFACTS {
        let output = artifact.build().map_err(|e| e.to_string())?;
        emit(
            Some(&out),
            &format!("{}.md", artifact.name),
            &output.markdown,
        )?;
        if output.gate.is_some_and(|gate| !gate.holds) {
            failed.push(artifact.name);
        }
    }
    if failed.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "gate failed: {} — see the tables in {}",
            failed.join(", "),
            out.display()
        ))
    }
}
