//! Structural VHDL-subset front-end.
//!
//! NanoMap accepts designs "specified in RTL and/or gate-level VHDL". This
//! module parses a pragmatic structural subset — one entity, one
//! architecture, component instantiations from a built-in RTL library, and
//! concurrent signal assignments with slices, concatenation and literals —
//! and elaborates it into an [`crate::rtl::RtlCircuit`].
//!
//! # Supported grammar
//!
//! ```text
//! entity NAME is port ( name {, name} : in|out TYPE {; ...} ); end [NAME];
//! architecture NAME of NAME is {signal name {, name} : TYPE;} begin
//!     label: component [generic map (g => INT {, ...})] port map (p => EXPR {, ...});
//!     target <= EXPR;
//! end [NAME];
//! TYPE := std_logic | std_logic_vector(HI downto 0)
//! EXPR := primary {& primary}
//! primary := name | name(I) | name(HI downto LO) | '0' | '1' | "0101"
//! ```
//!
//! The component library is documented on [`parse`]. Comments use `--`;
//! identifiers are case-insensitive.
//!
//! # Examples
//!
//! ```
//! let source = r#"
//! entity acc is
//!   port ( x : in std_logic_vector(7 downto 0);
//!          y : out std_logic_vector(7 downto 0) );
//! end acc;
//! architecture rtl of acc is
//!   signal state, next_state : std_logic_vector(7 downto 0);
//!   signal ovf : std_logic;
//! begin
//!   u_add: add generic map (width => 8)
//!          port map (a => x, b => state, cin => '0', sum => next_state, cout => ovf);
//!   u_reg: reg generic map (width => 8) port map (d => next_state, q => state);
//!   y <= state;
//! end rtl;
//! "#;
//! let circuit = nanomap_netlist::vhdl::parse(source)?;
//! assert_eq!(circuit.num_registers(), 1);
//! # Ok::<(), nanomap_netlist::ParseNetlistError>(())
//! ```

// This front-end faces untrusted input: every malformed file must
// surface as a `ParseNetlistError`, never a panic. (Applies to the
// whole module tree — lexer, parser, elaborator.)
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]

mod ast;
mod elab;
mod lexer;
mod parser;

pub use ast::{
    AstAssign, AstDesign, AstDir, AstExpr, AstInstance, AstPort, AstSignal, AstStatement, AstType,
};

use crate::error::ParseNetlistError;
use crate::rtl::RtlCircuit;

/// Parses and elaborates VHDL-subset source into an [`RtlCircuit`].
///
/// Built-in component library (all ports little-endian buses):
///
/// | component | generics | inputs | outputs |
/// |-----------|----------|--------|---------|
/// | `add` | `width` | `a`, `b`, `cin` | `sum`, `cout` |
/// | `sub` | `width` | `a`, `b` | `diff`, `bout` |
/// | `mul` | `width` | `a`, `b` | `prod` (2×width) |
/// | `mux2` | `width` | `a`, `b`, `sel` | `y` |
/// | `muxn` | `width`, `n` | `d0`..`d{n-1}`, `sel` | `y` |
/// | `eq`, `lt` | `width` | `a`, `b` | `y` (1 bit) |
/// | `and2`, `or2`, `xor2` | `width` | `a`, `b` | `y` |
/// | `inv` | `width` | `a` | `y` |
/// | `reduce_and`, `reduce_or`, `reduce_xor` | `width` | `a` | `y` (1 bit) |
/// | `shl`, `shr` | `width`, `amount` | `a` | `y` |
/// | `reg` | `width` | `d` | `q` |
///
/// # Errors
///
/// Returns a [`ParseNetlistError`] carrying the offending line for lexical,
/// syntactic and elaboration problems (unknown components, width
/// mismatches, undriven signals, assignment cycles).
pub fn parse(source: &str) -> Result<RtlCircuit, ParseNetlistError> {
    let tokens = lexer::lex(source)?;
    let design = parser::Parser::new(tokens).design()?;
    elab::elaborate(&design)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rtl::RtlSimulator;

    const ACCUMULATOR: &str = r#"
-- 8-bit accumulator with clear-on-overflow semantics omitted
entity acc is
  port ( x : in std_logic_vector(7 downto 0);
         y : out std_logic_vector(7 downto 0) );
end acc;
architecture rtl of acc is
  signal state : std_logic_vector(7 downto 0);
  signal next_state : std_logic_vector(7 downto 0);
  signal ovf : std_logic;
begin
  u_add: add generic map (width => 8)
         port map (a => x, b => state, cin => '0', sum => next_state, cout => ovf);
  u_reg: reg generic map (width => 8) port map (d => next_state, q => state);
  y <= state;
end rtl;
"#;

    #[test]
    fn accumulator_elaborates_and_runs() {
        let circuit = parse(ACCUMULATOR).unwrap();
        assert_eq!(circuit.num_registers(), 1);
        let mut sim = RtlSimulator::new(&circuit).unwrap();
        sim.set_input("x", 10);
        sim.step();
        sim.step();
        sim.step();
        sim.eval_comb();
        assert_eq!(sim.output("y"), Some(30));
    }

    #[test]
    fn slices_and_concat_work() {
        let source = r#"
entity swizzle is
  port ( a : in std_logic_vector(7 downto 0);
         y : out std_logic_vector(7 downto 0) );
end swizzle;
architecture rtl of swizzle is
begin
  y <= a(3 downto 0) & a(7 downto 4);
end rtl;
"#;
        let circuit = parse(source).unwrap();
        let mut sim = RtlSimulator::new(&circuit).unwrap();
        sim.set_input("a", 0xA5);
        sim.eval_comb();
        assert_eq!(sim.output("y"), Some(0x5A));
    }

    #[test]
    fn muxn_positional_data_ports() {
        let source = r#"
entity pick is
  port ( a, b, c : in std_logic_vector(3 downto 0);
         s : in std_logic_vector(1 downto 0);
         y : out std_logic_vector(3 downto 0) );
end pick;
architecture rtl of pick is
begin
  u0: muxn generic map (width => 4, n => 3)
      port map (d0 => a, d1 => b, d2 => c, sel => s, y => y);
end rtl;
"#;
        let circuit = parse(source).unwrap();
        let mut sim = RtlSimulator::new(&circuit).unwrap();
        sim.set_input("a", 1);
        sim.set_input("b", 2);
        sim.set_input("c", 3);
        sim.set_input("s", 2);
        sim.eval_comb();
        assert_eq!(sim.output("y"), Some(3));
    }

    #[test]
    fn chained_assignments_resolve() {
        let source = r#"
entity chain is
  port ( a : in std_logic; y : out std_logic );
end chain;
architecture rtl of chain is
  signal s1 : std_logic;
  signal s2 : std_logic;
begin
  y <= s2;
  s2 <= s1;
  s1 <= a;
end rtl;
"#;
        let circuit = parse(source).unwrap();
        let mut sim = RtlSimulator::new(&circuit).unwrap();
        sim.set_input("a", 1);
        sim.eval_comb();
        assert_eq!(sim.output("y"), Some(1));
    }

    #[test]
    fn assignment_cycle_rejected() {
        let source = r#"
entity cyc is
  port ( a : in std_logic; y : out std_logic );
end cyc;
architecture rtl of cyc is
  signal s1 : std_logic;
  signal s2 : std_logic;
begin
  s1 <= s2;
  s2 <= s1;
  y <= s1;
end rtl;
"#;
        assert!(parse(source).is_err());
    }

    #[test]
    fn unknown_component_rejected() {
        let source = r#"
entity u is
  port ( a : in std_logic; y : out std_logic );
end u;
architecture rtl of u is
begin
  u0: warp_core generic map (width => 1) port map (a => a, y => y);
end rtl;
"#;
        assert!(parse(source).is_err());
    }

    #[test]
    fn width_mismatch_rejected() {
        let source = r#"
entity w is
  port ( a : in std_logic_vector(3 downto 0); y : out std_logic_vector(7 downto 0) );
end w;
architecture rtl of w is
begin
  y <= a;
end rtl;
"#;
        assert!(parse(source).is_err());
    }

    #[test]
    fn undriven_output_rejected() {
        let source = r#"
entity o is
  port ( a : in std_logic; y : out std_logic );
end o;
architecture rtl of o is
begin
end rtl;
"#;
        assert!(parse(source).is_err());
    }

    #[test]
    fn vector_literal_msb_first() {
        let source = r#"
entity lit is
  port ( a : in std_logic; y : out std_logic_vector(3 downto 0) );
end lit;
architecture rtl of lit is
begin
  y <= "1010";
end rtl;
"#;
        let circuit = parse(source).unwrap();
        let mut sim = RtlSimulator::new(&circuit).unwrap();
        sim.eval_comb();
        assert_eq!(sim.output("y"), Some(0b1010));
    }
}

#[cfg(test)]
mod lut_component_tests {
    use crate::rtl::RtlSimulator;

    #[test]
    fn generic_lut_component() {
        // truth 0b0110 = XOR of two inputs.
        let source = r#"
entity g is
  port ( a : in std_logic; b : in std_logic; y : out std_logic );
end g;
architecture rtl of g is
begin
  u0: lut generic map (n => 2, truth => 6) port map (i0 => a, i1 => b, y => y);
end rtl;
"#;
        let circuit = super::parse(source).unwrap();
        let mut sim = RtlSimulator::new(&circuit).unwrap();
        for (a, b, expected) in [(0u64, 0u64, 0u64), (1, 0, 1), (0, 1, 1), (1, 1, 0)] {
            sim.set_input("a", a);
            sim.set_input("b", b);
            sim.eval_comb();
            assert_eq!(sim.output("y"), Some(expected));
        }
    }

    #[test]
    fn lut_component_requires_generics() {
        let source = r#"
entity g is
  port ( a : in std_logic; y : out std_logic );
end g;
architecture rtl of g is
begin
  u0: lut generic map (n => 1) port map (i0 => a, y => y);
end rtl;
"#;
        assert!(super::parse(source).is_err());
    }
}
