//! `cargo bench` entry point that replays every table and figure of the
//! paper at `Quick` scale and prints the regenerated artifacts — this is
//! what lands in `bench_output.txt`.

use hasco_bench::common::Config;
use hasco_bench::Scale;

fn main() {
    let scale = if std::env::args().any(|a| a == "--paper") {
        Scale::Paper
    } else {
        Scale::Quick
    };
    println!("=== HASCO reproduction: regenerating all tables and figures ({scale:?}) ===\n");
    let cfg = Config::at(scale);

    let t0 = std::time::Instant::now();
    macro_rules! exp {
        ($m:ident) => {{
            let start = std::time::Instant::now();
            let r = hasco_bench::$m::run(&cfg);
            println!("{}", hasco_bench::$m::render(&r));
            println!(
                "[{} regenerated in {:.1}s]\n",
                stringify!($m),
                start.elapsed().as_secs_f64()
            );
        }};
    }
    exp!(table1);
    exp!(fig2);
    exp!(fig7);
    exp!(fig8);
    exp!(fig9);
    exp!(fig10);
    exp!(fig11);
    exp!(table2);
    exp!(table3);
    println!(
        "=== all experiments regenerated in {:.1}s ===",
        t0.elapsed().as_secs_f64()
    );
}
