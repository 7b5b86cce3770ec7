//! Rewrites `WIRE_SCHEMA.json` from the declared wire layouts:
//!
//! ```text
//! cargo run -p sintra-core --example wire_schema
//! ```
//!
//! Refuses when a layout changed and `WIRE_FORMAT_VERSION` did not.

use std::path::Path;
use std::process::ExitCode;

fn main() -> ExitCode {
    let golden = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../WIRE_SCHEMA.json");
    let old = std::fs::read_to_string(&golden).unwrap_or_default();
    let written = sintra_core::schema::regenerate(&old)
        .and_then(|new| std::fs::write(&golden, new).map_err(|e| e.to_string()));
    match written {
        Ok(()) => {
            println!("wrote {}", golden.display());
            ExitCode::SUCCESS
        }
        Err(why) => {
            eprintln!("wire_schema: {why}");
            ExitCode::FAILURE
        }
    }
}
