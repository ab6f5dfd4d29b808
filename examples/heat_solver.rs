//! Heat solver: a Jacobi iteration with a convergence test, run under each
//! optimization level on all three simulated machines — the end-to-end
//! workflow a user of this library would follow to evaluate fusion and
//! contraction for their own code.
//!
//! ```text
//! cargo run --release --example heat_solver
//! ```

use zpl_fusion::par::{simulate, ExecConfig};
use zpl_fusion::prelude::*;
use zpl_fusion::sim::presets::MachineKind;

const SOURCE: &str = r#"
program heat;

config n     : int = 48;
config steps : int = 4;

region RH = [0..n+1, 0..n+1];
region R  = [1..n, 1..n];

direction up = [-1, 0];
direction dn = [ 1, 0];
direction lt = [ 0,-1];
direction rt = [ 0, 1];

var T : [RH] float;          -- temperature (persistent)
var NEW, DELTA, SQ : [R] float;  -- temporaries (contractible)

var err : float;
var k : int;

begin
  -- Hot spot in the middle of a cold plate.
  [RH] T := select((index1 == n / 2) * (index2 == n / 2), 100.0, 0.0);

  for k := 1 to steps do
    [R] NEW   := (T@up + T@dn + T@lt + T@rt) * 0.25;
    [R] DELTA := NEW - T;
    [R] SQ    := DELTA * DELTA;
    err := +<< [R] SQ;
    [R] T := NEW;
  end;
end
"#;

fn main() -> Result<(), zpl_fusion::Error> {
    let program = zpl_fusion::lang::compile(SOURCE)?;
    println!(
        "heat solver: {} steps of Jacobi on a 48x48 plate, 16 processors\n",
        4
    );
    println!(
        "{:<10} {:>9} {:>12} {:>12} {:>10} {:>10}",
        "level", "nests", "arrays", "peak bytes", "messages", "time (ms)"
    );
    for kind in MachineKind::all() {
        println!("--- {} ---", kind.name());
        let machine = kind.machine();
        let mut baseline_ns = None;
        for level in [Level::Baseline, Level::C1, Level::C2, Level::C2F3] {
            let opt = Pipeline::new(level).optimize(&program);
            let binding = ConfigBinding::defaults(&opt.scalarized.program);
            let cfg = ExecConfig::new(machine.clone(), 16);
            let r = simulate(&opt.scalarized, binding, &cfg)?;
            let speedup = match baseline_ns {
                None => {
                    baseline_ns = Some(r.total_ns);
                    String::from("(baseline)")
                }
                Some(b) => format!("({:+.1}%)", 100.0 * (b - r.total_ns) / b),
            };
            println!(
                "{:<10} {:>9} {:>12} {:>12} {:>10} {:>10.3} {speedup}",
                level.name(),
                opt.scalarized.nest_count(),
                opt.scalarized.live_arrays().len(),
                r.run.peak_bytes,
                r.comm.messages,
                r.total_ms(),
            );
        }
    }
    Ok(())
}
