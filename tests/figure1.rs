//! E7 — the paper's Figure 1, verbatim: the front-end must recover the
//! `mt1` dependency exactly as the paper describes, and the full flow must
//! produce implementable hardware under both organizations.

use memsync::core::{Compiler, OrganizationKind};
use memsync::hic::{compile, Endpoint};

/// Figure 1 of the paper, transcribed verbatim (modulo whitespace).
const FIGURE1: &str = r#"
    thread t1 () {
        int x1, xtmp, x2;
        #consumer{mt1,[t2,y1],[t3,z1]}
        x1 = f(xtmp, x2);
    }
    thread t2 () {
        int y1, y2;
        #producer{mt1,[t1,x1]}
        y1 = g(x1, y2);
    }
    thread t3 () {
        int z1, z2;
        #producer{mt1,[t1,x1]}
        z1 = h(x1, z2);
    }
"#;

#[test]
fn front_end_recovers_mt1() {
    let (program, analysis) = compile(FIGURE1).expect("figure 1 is valid hic");
    assert_eq!(program.threads.len(), 3);
    assert_eq!(analysis.dependencies.len(), 1);
    let dep = analysis.dependency("mt1").expect("mt1 resolved");
    assert_eq!(dep.producer, Endpoint::new("t1", "x1"));
    assert_eq!(
        dep.consumers,
        vec![Endpoint::new("t2", "y1"), Endpoint::new("t3", "z1")]
    );
    assert_eq!(dep.dep_number(), 2, "two threads depend on this producer");
}

#[test]
fn inference_matches_pragmas() {
    // §2: use-def analysis can extract the same producers/consumers the
    // pragmas declare.
    let program = memsync::hic::parser::parse(FIGURE1).expect("parses");
    let inferred = memsync::hic::usedef::infer_dependencies(&program);
    assert_eq!(inferred.len(), 1);
    assert_eq!(inferred[0].producer, Endpoint::new("t1", "x1"));
    assert_eq!(inferred[0].consumers.len(), 2);
}

#[test]
fn both_organizations_implement_figure1() {
    for kind in [OrganizationKind::Arbitrated, OrganizationKind::EventDriven] {
        let system = Compiler::new(FIGURE1)
            .organization(kind)
            .compile()
            .unwrap_or_else(|e| panic!("{kind}: {e}"));
        assert_eq!(system.fsms.len(), 3);
        assert_eq!(system.wrapper_modules.len(), 1);
        for module in system
            .thread_modules
            .iter()
            .chain(system.wrapper_modules.iter())
        {
            memsync::rtl::validate::validate(module)
                .unwrap_or_else(|e| panic!("{kind}/{}: {e:?}", module.name));
        }
        let report = system.implement().expect("implementable");
        assert!(report.total_brams() >= 1, "shared memory uses a BRAM");
        assert!(report.fmax_mhz() > 50.0);
    }
}

#[test]
fn hdl_emission_is_complete() {
    let system = Compiler::new(FIGURE1).compile().expect("compiles");
    let verilog = system.verilog();
    for name in ["thread_t1", "thread_t2", "thread_t3", "memsync_arb_p1c2"] {
        assert!(
            verilog.contains(&format!("module {name}")),
            "verilog missing {name}"
        );
    }
    // The wrapper instantiates the BRAM and the dependency-list registers.
    assert!(verilog.contains("bram_mem"));
    assert!(verilog.contains("dl0_key"));
}

#[test]
fn figure1_deadlock_free_but_reversed_is_not() {
    // Sanity: reversing one dependency direction creates a cycle the
    // static check must reject.
    let cyclic = r#"
        thread t1 () { int x1, q; #consumer{mt1,[t2,y1]} x1 = 1; #producer{mt2,[t2,w]} q = w; }
        thread t2 () { int y1, w; #producer{mt1,[t1,x1]} y1 = x1; #consumer{mt2,[t1,q]} w = 2; }
    "#;
    let err = compile(cyclic).expect_err("cycle must be rejected");
    assert!(err.to_string().contains("static deadlock"), "{err}");
}
