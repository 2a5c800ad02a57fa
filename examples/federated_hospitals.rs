//! Bivariate statistics at one hospital of a federated registry.
//!
//! A public health researcher computes, against a single hospital, the
//! private correlation between two clinical columns over a hidden
//! cohort: one pass of encrypted index bits yields all six aggregates.
//! (A sum across several hospitals' partitions is the networked sharded
//! query, `pps query --shards`.)
//!
//! Run with:
//! ```sh
//! cargo run --release -p pps --example federated_hospitals
//! ```

use pps::prelude::*;
use pps::stats::{private_paired_moments, PairedDatabase};
use rand::{Rng, SeedableRng};

fn main() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(2024);

    println!("=== private correlation: age vs blood pressure, hidden cohort ===");
    let client = SumClient::generate(512, &mut rng).expect("keygen");
    let n = 300;
    let ages: Vec<u64> = (0..n).map(|_| rng.gen_range(20..90)).collect();
    // Blood pressure loosely increases with age, plus noise.
    let pressures: Vec<u64> = ages
        .iter()
        .map(|&a| 90 + a + rng.gen_range(0..30))
        .collect();
    let paired = PairedDatabase::new(ages, pressures).expect("aligned columns");
    let cohort = Selection::random(n, 0.5, &mut rng).expect("valid p");

    let r = private_paired_moments(
        &paired,
        &cohort,
        &client,
        LinkProfile::gigabit_lan(),
        &mut rng,
    )
    .expect("paired query");

    println!("cohort size       : {}", r.count);
    println!("mean age          : {:.1}", r.sum_x as f64 / r.count as f64);
    println!("mean pressure     : {:.1}", r.sum_y as f64 / r.count as f64);
    println!("covariance        : {:.2}", r.covariance().unwrap());
    println!("Pearson r         : {:.3}", r.correlation().unwrap());
    println!(
        "\nall six aggregates came from ONE pass of {} encrypted index bits\n\
         ({} B up, {} B down) — the server folded the same ciphertexts against\n\
         six value vectors (1, x, y, x², y², xy).",
        n, r.timings.bytes_to_server, r.timings.bytes_to_client
    );

    assert!(
        r.correlation().unwrap() > 0.5,
        "age and pressure are built correlated"
    );
}
