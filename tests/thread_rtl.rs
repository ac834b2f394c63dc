//! Generated thread-datapath RTL vs the FSM executor: the same hic thread,
//! synthesized to RTL and run in the netlist interpreter, must emit the
//! same `send` values as the cycle-accurate FSM executor — the end-to-end
//! check on the behavioral-synthesis code generator. Every program runs at
//! both optimization levels: O1's if-conversion emits `Select`, which no
//! O0 lowering does, so between them the programs execute every op the
//! executor's lowered form has apart from memory ops.

use memsync::rtl::interp::Interp;
use memsync::sim::ThreadExec;
use memsync::synth::ir::OpKind;
use memsync::synth::{codegen, Fsm, OptLevel, Synthesis};

fn fsm_at(src: &str, opt: OptLevel) -> Fsm {
    let program = memsync::hic::parser::parse(src).expect("parses");
    Synthesis::of(&program)
        .opt(opt)
        .run()
        .expect("synthesizes")
        .fsm
}

fn build(src: &str, opt: OptLevel) -> (Interp, ThreadExec) {
    let fsm = fsm_at(src, opt);
    let module = codegen::generate(&fsm).expect("codegen");
    memsync::rtl::validate::validate(&module).expect("valid netlist");
    (
        Interp::new(&module).expect("interpretable"),
        ThreadExec::new(fsm),
    )
}

/// Runs both sides until each produced `count` sends; returns the value
/// streams.
fn collect_sends(src: &str, opt: OptLevel, inputs: &[u32], count: usize) -> (Vec<u64>, Vec<i64>) {
    let (mut rtl, mut exec) = build(src, opt);

    // --- RTL side ---
    let mut rtl_sent = Vec::new();
    let mut input_iter = inputs.iter().copied().cycle();
    let has_rx = src.contains("recv");
    let mut rx_cur: Option<u32> = None;
    for _ in 0..20_000 {
        if rtl_sent.len() >= count {
            break;
        }
        if has_rx {
            if rx_cur.is_none() {
                rx_cur = Some(input_iter.next().expect("cycle never ends"));
            }
            rtl.set("rx_valid", 1);
            rtl.set("rx_data", u64::from(rx_cur.expect("set above")));
        }
        rtl.set("tx_ready", 1);
        rtl.settle();
        if has_rx && rtl.get("rx_ready") != 0 {
            rx_cur = None; // message consumed at this edge
        }
        if rtl.get("tx_valid") != 0 {
            rtl_sent.push(rtl.get("tx_data"));
        }
        rtl.step();
    }

    // --- executor side ---
    let mut input_iter = inputs.iter().copied().cycle();
    let mut rx_cur: Option<i64> = None;
    for _ in 0..20_000 {
        if exec.sent.len() >= count {
            break;
        }
        if has_rx && rx_cur.is_none() {
            rx_cur = Some(i64::from(input_iter.next().expect("cycle never ends")));
        }
        let mut rx = rx_cur;
        exec.tick(&mut rx, true);
        if has_rx && rx.is_none() {
            rx_cur = None;
        }
    }
    (rtl_sent, exec.sent.clone())
}

/// Runs `src` at O0 and at O1 and compares RTL with executor at each.
fn check(src: &str, inputs: &[u32], count: usize) {
    for opt in [OptLevel::O0, OptLevel::O1] {
        let (rtl, exec) = collect_sends(src, opt, inputs, count);
        assert!(
            rtl.len() >= count,
            "{opt:?}: RTL produced only {} sends",
            rtl.len()
        );
        assert!(
            exec.len() >= count,
            "{opt:?}: executor produced only {} sends",
            exec.len()
        );
        for i in 0..count {
            assert_eq!(
                rtl[i],
                exec[i] as u64 & 0xffff_ffff,
                "{opt:?}: send #{i} differs (rtl {:x?} vs exec {:x?})",
                &rtl[..count.min(rtl.len())],
                &exec[..count.min(exec.len())]
            );
        }
    }
}

const ARITHMETIC: &str =
    "thread t() { message m; int a, b; recv m; a = (m >> 3) + 7; b = (a * 5) ^ (m & 255); send b; }";

const CONTROL_FLOW: &str = "thread t() { message m; int acc, i; recv m;
      acc = 0;
      for (i = 0; i < 4; i = i + 1) { acc = acc + ((m >> i) & 15); }
      if (acc > 20) { acc = acc - 20; } else { acc = acc + 100; }
      send acc; }";

const CASE_MACHINE: &str = "thread t() { message m; int s, r; recv m;
      s = m & 3;
      case (s) { when 0: r = m + 1; when 1: r = m ^ 21; when 2: r = m << 2; default: r = 9; }
      send r; }";

const CALL_NETWORK: &str = "thread t() { message m; int y; recv m; y = f(m, m >> 5); send y; }";

const COMPARISONS: &str = "thread t() { message m; int a, b, c; recv m;
      a = (m < 100) | ((m > 1000) << 1);
      b = (m == 77) + (m != 78);
      c = (a && b) | ((a || b) << 4);
      send a + (b << 8) + (c << 16); }";

/// `char` variables hold 8 bits: every store truncates, and reads see the
/// truncated value.
const CHAR_WIDTH: &str = "thread t() { message m; char c, d; int r; recv m;
      c = m + 200;
      d = c * 3;
      if (d > 100) { c = d - 7; } else { c = d + 7; }
      r = (c << 8) + d;
      send r; }";

const UNARY: &str = "thread t() { message m; int a, b, c; recv m;
      a = -m;
      b = !(m & 3) + !m;
      c = ~m ^ -(a >> 4);
      send a ^ (b << 3) ^ c; }";

#[test]
fn arithmetic_pipeline_matches() {
    check(ARITHMETIC, &[0x1234_5678, 0xffff_ffff, 0, 42], 8);
}

#[test]
fn control_flow_matches() {
    check(CONTROL_FLOW, &[0x0f0f_0f0f, 1, 0xdead_beef], 6);
}

#[test]
fn case_machine_matches() {
    check(CASE_MACHINE, &[0, 1, 2, 3, 100, 101, 102, 103], 8);
}

#[test]
fn call_network_matches() {
    check(CALL_NETWORK, &[7, 0x8000_0000, 12345], 6);
}

#[test]
fn comparisons_and_logic_match() {
    check(COMPARISONS, &[50, 77, 78, 5000, 100], 10);
}

#[test]
fn char_width_matches() {
    check(CHAR_WIDTH, &[0, 55, 56, 255, 0x1234_5678, 0xffff_ffff], 12);
}

#[test]
fn unary_operators_match() {
    check(UNARY, &[0, 1, 2, 3, 0x8000_0000, 0xffff_ffff, 1234], 14);
}

/// The O1 runs above execute a `Select`: if-conversion turns at least one
/// of the programs' diamonds into one.
#[test]
fn an_o1_program_executes_a_select() {
    let selects = [
        ARITHMETIC,
        CONTROL_FLOW,
        CASE_MACHINE,
        CALL_NETWORK,
        COMPARISONS,
        CHAR_WIDTH,
        UNARY,
    ]
    .iter()
    .filter(|src| {
        fsm_at(src, OptLevel::O1)
            .states
            .iter()
            .flat_map(|s| &s.ops)
            .any(|op| matches!(op.kind, OpKind::Select))
    })
    .count();
    assert!(selects >= 1, "no O1 program holds a Select");
}
