//! `aos attacks` stages the §VII gallery: every scenario with its
//! verdict, then the PAC-forging tally.

use std::process::Command;

use aos_core::security;

#[test]
fn attacks_prints_every_scenario_and_the_forging_tally() {
    let out = Command::new(env!("CARGO_BIN_EXE_aos"))
        .arg("attacks")
        .output()
        .expect("the aos binary runs");
    assert!(out.status.success(), "aos attacks: {out:?}");
    let text = String::from_utf8(out.stdout).expect("utf8 stdout");

    for outcome in security::all_scenarios() {
        assert!(
            text.contains(&format!("scenario : {}\n", outcome.name)),
            "missing scenario {:?} in:\n{text}",
            outcome.name
        );
    }

    // Each scenario is a blank-line separated block; only intra-object
    // overflow (§VII-F) gets past AOS.
    let missed: Vec<&str> = text
        .split("\n\n")
        .filter(|block| block.contains("AOS      : not detected"))
        .collect();
    assert_eq!(missed.len(), 1, "exactly one undetected scenario:\n{text}");
    assert!(missed[0].contains("intra-object overflow"), "{}", missed[0]);

    let (successes, _) = security::pac_forging(4096);
    assert!(
        text.contains(&format!(
            "PAC forging: {successes}/4096 forged PACs slipped through"
        )),
        "missing the forging line in:\n{text}"
    );
}
