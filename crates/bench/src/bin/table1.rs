//! Table I: classification of the four cache-coherence protocols, printed
//! from the implementation's own `ProtocolTraits` so that the table and the
//! simulator can never drift apart.

use bigtiny_bench::{cli, render_table};
use bigtiny_coherence::{DirtyPropagation, Protocol, StaleInvalidation, WriteGranularity};

const CLI: cli::Spec = cli::Spec::new(env!("CARGO_BIN_NAME"), &[]);

fn main() {
    CLI.parse();
    let header: Vec<String> = [
        "Protocol",
        "Who initiates invalidation?",
        "How is dirty data propagated?",
        "Write granularity",
    ]
    .map(String::from)
    .to_vec();
    let rows: Vec<Vec<String>> = Protocol::ALL
        .iter()
        .map(|p| {
            let t = p.traits();
            vec![
                p.to_string(),
                match t.stale_invalidation {
                    StaleInvalidation::Writer => "Writer".to_owned(),
                    StaleInvalidation::Reader => "Reader".to_owned(),
                },
                match t.dirty_propagation {
                    DirtyPropagation::OwnerWriteBack => "Owner, Write-Back".to_owned(),
                    DirtyPropagation::NoOwnerWriteThrough => "No-Owner, Write-Through".to_owned(),
                    DirtyPropagation::NoOwnerWriteBack => "No-Owner, Write-Back".to_owned(),
                },
                match t.write_granularity {
                    WriteGranularity::Line => "Line".to_owned(),
                    WriteGranularity::WordOrLine => "Word/Line".to_owned(),
                    WriteGranularity::Word => "Word".to_owned(),
                },
            ]
        })
        .collect();
    println!("Table I: Classification of Cache Coherence Protocols\n");
    println!("{}", render_table(&header, &rows));
    println!("Runtime no-op table (Figure 3 caption):");
    for p in Protocol::ALL {
        println!(
            "  {:<8} cache_invalidate: {:<6} cache_flush: {}",
            p.to_string(),
            if p.invalidate_is_noop() { "no-op" } else { "real" },
            if p.flush_is_noop() { "no-op" } else { "real" },
        );
    }
}
