//! A dependency-free BLIF front end.
//!
//! Parses the combinational subset of the Berkeley Logic Interchange
//! Format — one `.model`, `.inputs`/`.outputs`, single-output `.names`
//! covers — and lowers it into the [`Netlist`]
//! IR, so any synthesized circuit can be aged exactly like the hand-built
//! adder. Sequential and hierarchical constructs (`.latch`, `.subckt`,
//! `.gate`, ...) are rejected with a typed [`Error`] carrying the source
//! line.
//!
//! Lowering recognizes the covers of the CMOS primitive cells (INV, NAND,
//! NOR, AOI21, OAI21) and common composites exactly, so a netlist exported
//! with [`export`] re-imports gate-for-gate with identical ids — the
//! foundation of the differential tests that pin BLIF round-trips to
//! byte-identical aging reports. Covers that match no cell fall back to a
//! faithful sum-of-products lowering (literal inverters, AND cubes, an OR
//! tree), keeping the PMOS stress model meaningful for foreign netlists.
//!
//! One extension: `.wide <net>` marks the gate driving `<net>` as
//! explicitly upsized, preserving critical-path sizing annotations
//! (which are not derivable from fanout) across export/import.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::collections::HashMap;

use crate::error::Error;
use crate::gate::{GateId, GateKind, NetId};
use crate::netlist::{Netlist, NetlistBuilder};

/// Bundled example circuits (see `fixtures/`): the decoder and multiplier
/// families from the BTI-aging literature the netlist front end unlocks.
pub mod fixtures {
    /// A 4-to-16 one-hot address decoder.
    pub const DECODER: &str = include_str!("../fixtures/decoder.blif");
    /// A 4x4 unsigned array multiplier (ripple-carry rows).
    pub const MULTIPLIER: &str = include_str!("../fixtures/multiplier.blif");
}

/// Most inputs a single `.names` block may have; larger covers are
/// rejected with [`Error::Oversized`] instead of exploding the lowering.
pub const MAX_NAMES_INPUTS: usize = 12;

/// A parsed BLIF model: the lowered netlist plus the source-level names
/// of its primary inputs and outputs (declaration order matches
/// `netlist.inputs()` / `netlist.outputs()`).
#[derive(Debug, Clone)]
pub struct BlifModel {
    name: String,
    input_names: Vec<String>,
    output_names: Vec<String>,
    netlist: Netlist,
}

impl BlifModel {
    /// The `.model` name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The lowered netlist.
    pub fn netlist(&self) -> &Netlist {
        &self.netlist
    }

    /// Consumes the model, returning the netlist.
    pub fn into_netlist(self) -> Netlist {
        self.netlist
    }

    /// Primary input names, in declaration order.
    pub fn input_names(&self) -> &[String] {
        &self.input_names
    }

    /// Primary output names, in declaration order.
    pub fn output_names(&self) -> &[String] {
        &self.output_names
    }
}

// ---------------------------------------------------------------- lexing

/// One logical line: `\` continuations joined, comments stripped,
/// whitespace-tokenized. `line` is the 1-based first physical line.
struct LogicalLine {
    line: usize,
    tokens: Vec<String>,
}

fn logical_lines(text: &str) -> Vec<LogicalLine> {
    let mut out = Vec::new();
    let mut pending: Vec<String> = Vec::new();
    let mut start = 0usize;
    let mut continuing = false;
    for (i, raw) in text.lines().enumerate() {
        let content = match raw.find('#') {
            Some(p) => &raw[..p],
            None => raw,
        };
        let trimmed = content.trim_end();
        let (body, cont) = match trimmed.strip_suffix('\\') {
            Some(stripped) => (stripped, true),
            None => (trimmed, false),
        };
        if !continuing {
            start = i + 1;
        }
        pending.extend(body.split_whitespace().map(str::to_string));
        continuing = cont;
        if !cont && !pending.is_empty() {
            out.push(LogicalLine {
                line: start,
                tokens: std::mem::take(&mut pending),
            });
        }
    }
    if continuing && !pending.is_empty() {
        out.push(LogicalLine {
            line: start,
            tokens: pending,
        });
    }
    out
}

// --------------------------------------------------------------- parsing

/// One cover row of a `.names` block.
struct Row {
    plane: String,
    output: char,
}

/// One `.names` command with its cover.
struct NamesCmd {
    line: usize,
    inputs: Vec<String>,
    output: String,
    rows: Vec<Row>,
}

/// Parses BLIF text into a lowered [`BlifModel`].
pub fn parse(text: &str) -> Result<BlifModel, Error> {
    let mut model_name: Option<String> = None;
    let mut input_names: Vec<(String, usize)> = Vec::new();
    let mut output_names: Vec<(String, usize)> = Vec::new();
    let mut wide_names: Vec<(String, usize)> = Vec::new();
    let mut commands: Vec<NamesCmd> = Vec::new();
    let mut current: Option<NamesCmd> = None;

    for ll in logical_lines(text) {
        let head = ll.tokens[0].as_str();
        if head.starts_with('.') {
            if let Some(cmd) = current.take() {
                commands.push(cmd);
            }
            match head {
                ".model" => {
                    if model_name.is_some() {
                        return Err(Error::blif(
                            ll.line,
                            "multiple .model blocks (hierarchy is unsupported)",
                        ));
                    }
                    if ll.tokens.len() != 2 {
                        return Err(Error::blif(ll.line, "expected `.model <name>`"));
                    }
                    model_name = Some(ll.tokens[1].clone());
                }
                ".inputs" => {
                    input_names.extend(ll.tokens[1..].iter().map(|t| (t.clone(), ll.line)));
                }
                ".outputs" => {
                    output_names.extend(ll.tokens[1..].iter().map(|t| (t.clone(), ll.line)));
                }
                ".names" => {
                    if ll.tokens.len() < 2 {
                        return Err(Error::blif(
                            ll.line,
                            "expected `.names <inputs...> <output>`",
                        ));
                    }
                    let inputs: Vec<String> = ll.tokens[1..ll.tokens.len() - 1].to_vec();
                    if inputs.len() > MAX_NAMES_INPUTS {
                        return Err(Error::Oversized {
                            line: ll.line,
                            inputs: inputs.len(),
                            limit: MAX_NAMES_INPUTS,
                        });
                    }
                    current = Some(NamesCmd {
                        line: ll.line,
                        inputs,
                        output: ll.tokens[ll.tokens.len() - 1].clone(),
                        rows: Vec::new(),
                    });
                }
                ".wide" => {
                    if ll.tokens.len() != 2 {
                        return Err(Error::blif(ll.line, "expected `.wide <net>`"));
                    }
                    wide_names.push((ll.tokens[1].clone(), ll.line));
                }
                ".end" => break,
                ".latch" | ".subckt" | ".gate" | ".mlatch" | ".exdc" | ".clock" | ".search" => {
                    return Err(Error::Unsupported {
                        line: ll.line,
                        construct: head.to_string(),
                    });
                }
                other => {
                    return Err(Error::blif(ll.line, format!("unknown directive `{other}`")));
                }
            }
        } else {
            let Some(cmd) = current.as_mut() else {
                return Err(Error::blif(ll.line, "cover row outside a .names block"));
            };
            let k = cmd.inputs.len();
            let (plane, out_tok) = match (k, ll.tokens.len()) {
                (0, 1) => (String::new(), ll.tokens[0].as_str()),
                (_, 2) if k > 0 => (ll.tokens[0].clone(), ll.tokens[1].as_str()),
                _ => {
                    return Err(Error::blif(
                        ll.line,
                        format!("cover row must be `<{k}-column plane> <output>`"),
                    ));
                }
            };
            if plane.len() != k || !plane.chars().all(|c| matches!(c, '0' | '1' | '-')) {
                return Err(Error::blif(
                    ll.line,
                    format!("cover plane `{plane}` is not {k} columns of 0/1/-"),
                ));
            }
            let output = match out_tok {
                "0" => '0',
                "1" => '1',
                other => {
                    return Err(Error::blif(
                        ll.line,
                        format!("cover output `{other}` must be 0 or 1"),
                    ));
                }
            };
            if let Some(first) = cmd.rows.first() {
                if first.output != output {
                    return Err(Error::blif(
                        ll.line,
                        "inconsistent cover output phase within one .names block",
                    ));
                }
            }
            cmd.rows.push(Row { plane, output });
        }
    }
    if let Some(cmd) = current.take() {
        commands.push(cmd);
    }

    let Some(name) = model_name else {
        return Err(Error::blif(0, "missing .model declaration"));
    };

    lower_model(name, input_names, output_names, wide_names, commands)
}

// -------------------------------------------------------------- lowering

/// Who defines a net name.
enum Producer {
    /// Primary input (index into the declaration list).
    Input,
    /// Output of the `.names` command at this index.
    Names(usize),
}

fn lower_model(
    name: String,
    input_names: Vec<(String, usize)>,
    output_names: Vec<(String, usize)>,
    wide_names: Vec<(String, usize)>,
    commands: Vec<NamesCmd>,
) -> Result<BlifModel, Error> {
    // Every net has exactly one producer.
    let mut producers: HashMap<&str, Producer> = HashMap::new();
    for (n, line) in &input_names {
        if producers.insert(n.as_str(), Producer::Input).is_some() {
            return Err(Error::blif(*line, format!("duplicate primary input `{n}`")));
        }
    }
    for (ci, cmd) in commands.iter().enumerate() {
        if producers
            .insert(cmd.output.as_str(), Producer::Names(ci))
            .is_some()
        {
            return Err(Error::blif(
                cmd.line,
                format!("net `{}` is driven twice", cmd.output),
            ));
        }
    }

    // Deterministic topological schedule: Kahn's algorithm with a
    // min-heap keyed by declaration index, so the gate order (and with it
    // every NetId/GateId) is a pure function of the file.
    let mut indegree = vec![0usize; commands.len()];
    let mut consumers: Vec<Vec<usize>> = vec![Vec::new(); commands.len()];
    for (ci, cmd) in commands.iter().enumerate() {
        for input in &cmd.inputs {
            match producers.get(input.as_str()) {
                None => {
                    return Err(Error::blif(
                        cmd.line,
                        format!("undefined net `{input}` (no .inputs or .names drives it)"),
                    ));
                }
                Some(Producer::Input) => {}
                Some(Producer::Names(pj)) => {
                    consumers[*pj].push(ci);
                    indegree[ci] += 1;
                }
            }
        }
    }
    let mut heap: BinaryHeap<Reverse<usize>> = indegree
        .iter()
        .enumerate()
        .filter(|&(_, d)| *d == 0)
        .map(|(ci, _)| Reverse(ci))
        .collect();
    let mut order = Vec::with_capacity(commands.len());
    while let Some(Reverse(ci)) = heap.pop() {
        order.push(ci);
        for &consumer in &consumers[ci] {
            indegree[consumer] -= 1;
            if indegree[consumer] == 0 {
                heap.push(Reverse(consumer));
            }
        }
    }
    if order.len() < commands.len() {
        let stuck = indegree.iter().position(|&d| d > 0).unwrap_or(0);
        return Err(Error::blif(
            commands[stuck].line,
            format!(
                "combinational cycle through net `{}`",
                commands[stuck].output
            ),
        ));
    }

    // Build the netlist: all primary inputs first (declaration order),
    // then the scheduled .names blocks.
    let mut builder = NetlistBuilder::new();
    let mut nets: HashMap<&str, NetId> = HashMap::new();
    for (n, _) in &input_names {
        let net = builder.input();
        nets.insert(n.as_str(), net);
    }
    let first_pi = input_names.first().map(|(n, _)| nets[n.as_str()]);
    let mut consts = ConstCache::default();
    for &ci in &order {
        let cmd = &commands[ci];
        let ins: Vec<NetId> = cmd.inputs.iter().map(|n| nets[n.as_str()]).collect();
        let out = lower_names(&mut builder, &ins, cmd, first_pi, &mut consts)?;
        nets.insert(cmd.output.as_str(), out);
    }
    // The scheduled order is a permutation of the command list, but gates
    // were emitted in schedule order; re-establish declaration order is
    // unnecessary — the schedule IS the canonical order.
    for (n, line) in &output_names {
        let Some(&net) = nets.get(n.as_str()) else {
            return Err(Error::blif(*line, format!("undefined output net `{n}`")));
        };
        builder.mark_output(net);
    }
    for (n, line) in &wide_names {
        let Some(&net) = nets.get(n.as_str()) else {
            return Err(Error::blif(
                *line,
                format!(".wide names undefined net `{n}`"),
            ));
        };
        if !builder.mark_wide(net) {
            return Err(Error::blif(
                *line,
                format!(".wide on net `{n}` which has no driving gate"),
            ));
        }
    }

    Ok(BlifModel {
        name,
        input_names: input_names.into_iter().map(|(n, _)| n).collect(),
        output_names: output_names.into_iter().map(|(n, _)| n).collect(),
        netlist: builder.finish(),
    })
}

/// Constant nets synthesized so far (BLIF allows constant-function
/// `.names`; CMOS needs a tie cell, modeled as INV + NAND/NOR off a
/// primary input). Shared across the whole model.
#[derive(Default)]
struct ConstCache {
    inv_pi: Option<NetId>,
    zero: Option<NetId>,
    one: Option<NetId>,
}

fn constant(
    builder: &mut NetlistBuilder,
    value: bool,
    first_pi: Option<NetId>,
    consts: &mut ConstCache,
    line: usize,
) -> Result<NetId, Error> {
    let slot = if value { consts.one } else { consts.zero };
    if let Some(net) = slot {
        return Ok(net);
    }
    let Some(pi) = first_pi else {
        return Err(Error::blif(
            line,
            "constant output requires at least one primary input to synthesize a tie cell",
        ));
    };
    let npi = match consts.inv_pi {
        Some(net) => net,
        None => {
            let net = builder.inv(pi);
            consts.inv_pi = Some(net);
            net
        }
    };
    let net = if value {
        builder.nand2(pi, npi)
    } else {
        builder.nor2(pi, npi)
    };
    if value {
        consts.one = Some(net);
    } else {
        consts.zero = Some(net);
    }
    Ok(net)
}

/// Lowers one `.names` block. Returns the net carrying the function —
/// possibly an alias of an existing net (buffers add no gate).
fn lower_names(
    builder: &mut NetlistBuilder,
    ins: &[NetId],
    cmd: &NamesCmd,
    first_pi: Option<NetId>,
    consts: &mut ConstCache,
) -> Result<NetId, Error> {
    let k = ins.len();
    if cmd.rows.is_empty() {
        // An empty cover is the constant 0 in BLIF.
        return constant(builder, false, first_pi, consts, cmd.line);
    }
    let out_one = cmd.rows[0].output == '1';
    if k == 0 {
        // A zero-input cover row matches every assignment.
        return constant(builder, out_one, first_pi, consts, cmd.line);
    }
    if k <= 3 {
        let tt = truth_table(k, &cmd.rows, out_one);
        // Project onto the true support so `1- 1`-style covers collapse
        // to buffers/inverters before cell matching.
        let (support, reduced) = project_support(k, &tt);
        match support.len() {
            0 => return constant(builder, reduced[0], first_pi, consts, cmd.line),
            1 => {
                let a = ins[support[0]];
                return Ok(if reduced[1] { a } else { builder.inv(a) });
            }
            2 => {
                let pair = [ins[support[0]], ins[support[1]]];
                if let Some(net) = match_cell2(builder, pair, &reduced) {
                    return Ok(net);
                }
            }
            _ => {
                let triple = [ins[support[0]], ins[support[1]], ins[support[2]]];
                if let Some(net) = match_cell3(builder, triple, &reduced) {
                    return Ok(net);
                }
            }
        }
    }
    Ok(lower_sop(builder, ins, &cmd.rows, out_one))
}

/// `tt[x]` = value of the cover at the assignment where input `i` takes
/// bit `i` of `x`.
fn truth_table(k: usize, rows: &[Row], out_one: bool) -> Vec<bool> {
    (0..1usize << k)
        .map(|x| {
            let matched = rows.iter().any(|row| {
                row.plane.bytes().enumerate().all(|(i, c)| match c {
                    b'0' => (x >> i) & 1 == 0,
                    b'1' => (x >> i) & 1 == 1,
                    _ => true,
                })
            });
            matched == out_one
        })
        .collect()
}

/// The inputs the function actually depends on, plus the truth table
/// projected onto them.
fn project_support(k: usize, tt: &[bool]) -> (Vec<usize>, Vec<bool>) {
    let support: Vec<usize> = (0..k)
        .filter(|&i| (0..tt.len()).any(|x| tt[x] != tt[x ^ (1 << i)]))
        .collect();
    let reduced = (0..1usize << support.len())
        .map(|y| {
            let x = support
                .iter()
                .enumerate()
                .fold(0usize, |acc, (bit, &i)| acc | (((y >> bit) & 1) << i));
            tt[x]
        })
        .collect();
    (support, reduced)
}

/// Standard-cell matching for 2-input functions that depend on both
/// inputs. Identity input order is tried first so exported covers
/// re-import with their original operand order.
fn match_cell2(builder: &mut NetlistBuilder, ins: [NetId; 2], tt: &[bool]) -> Option<NetId> {
    type Eval2 = fn(bool, bool) -> bool;
    type Build2 = fn(&mut NetlistBuilder, NetId, NetId) -> NetId;
    const CELLS: &[(Eval2, Build2)] = &[
        (|a, b| !(a && b), |bl, a, b| bl.nand2(a, b)),
        (|a, b| !(a || b), |bl, a, b| bl.nor2(a, b)),
        (|a, b| a && b, |bl, a, b| bl.and2(a, b)),
        (|a, b| a || b, |bl, a, b| bl.or2(a, b)),
        (|a, b| a ^ b, |bl, a, b| bl.xor2(a, b)),
        (|a, b| !(a ^ b), |bl, a, b| bl.xnor2(a, b)),
        // a AND NOT b == NOR(!a, b); a OR NOT b == NAND(!a, b).
        (
            |a, b| a && !b,
            |bl, a, b| {
                let na = bl.inv(a);
                bl.nor2(na, b)
            },
        ),
        (
            |a, b| a || !b,
            |bl, a, b| {
                let na = bl.inv(a);
                bl.nand2(na, b)
            },
        ),
    ];
    for perm in [[0usize, 1], [1, 0]] {
        for (eval, build) in CELLS {
            let matches = (0..4usize).all(|x| {
                let bit = |i: usize| (x >> i) & 1 == 1;
                tt[x] == eval(bit(perm[0]), bit(perm[1]))
            });
            if matches {
                return Some(build(builder, ins[perm[0]], ins[perm[1]]));
            }
        }
    }
    None
}

/// Standard-cell matching for 3-input functions that depend on all three
/// inputs, identity permutation first.
fn match_cell3(builder: &mut NetlistBuilder, ins: [NetId; 3], tt: &[bool]) -> Option<NetId> {
    type Eval3 = fn(bool, bool, bool) -> bool;
    type Build3 = fn(&mut NetlistBuilder, NetId, NetId, NetId) -> NetId;
    const CELLS: &[(Eval3, Build3)] = &[
        (|a, b, c| !(a && b && c), |bl, a, b, c| bl.nand3(a, b, c)),
        (|a, b, c| !(a || b || c), |bl, a, b, c| bl.nor3(a, b, c)),
        (|a, b, c| !((a && b) || c), |bl, a, b, c| bl.aoi21(a, b, c)),
        (|a, b, c| !((a || b) && c), |bl, a, b, c| bl.oai21(a, b, c)),
        (|a, b, c| (a && b) || c, |bl, a, b, c| bl.ao21(a, b, c)),
        (
            |a, b, c| (a || b) && c,
            |bl, a, b, c| {
                let n = bl.oai21(a, b, c);
                bl.inv(n)
            },
        ),
        (
            |a, b, sel| if sel { b } else { a },
            |bl, a, b, sel| bl.mux2(a, b, sel),
        ),
        (
            |a, b, c| a && b && c,
            |bl, a, b, c| {
                let n = bl.and2(a, b);
                bl.and2(n, c)
            },
        ),
        (
            |a, b, c| a || b || c,
            |bl, a, b, c| {
                let n = bl.or2(a, b);
                bl.or2(n, c)
            },
        ),
    ];
    const PERMS: [[usize; 3]; 6] = [
        [0, 1, 2],
        [0, 2, 1],
        [1, 0, 2],
        [1, 2, 0],
        [2, 0, 1],
        [2, 1, 0],
    ];
    for perm in PERMS {
        for (eval, build) in CELLS {
            let matches = (0..8usize).all(|x| {
                let bit = |i: usize| (x >> i) & 1 == 1;
                tt[x] == eval(bit(perm[0]), bit(perm[1]), bit(perm[2]))
            });
            if matches {
                return Some(build(builder, ins[perm[0]], ins[perm[1]], ins[perm[2]]));
            }
        }
    }
    None
}

/// Faithful sum-of-products lowering for covers that match no cell:
/// one inverter per complemented literal (shared), an AND chain per
/// cube, an OR tree across cubes, and a final inverter for off-set
/// covers.
fn lower_sop(builder: &mut NetlistBuilder, ins: &[NetId], rows: &[Row], out_one: bool) -> NetId {
    let mut inv_cache: Vec<Option<NetId>> = vec![None; ins.len()];
    let mut cube_nets: Vec<NetId> = Vec::new();
    for row in rows {
        let mut lits: Vec<NetId> = Vec::new();
        for (i, c) in row.plane.bytes().enumerate() {
            match c {
                b'1' => lits.push(ins[i]),
                b'0' => {
                    let lit = match inv_cache[i] {
                        Some(net) => net,
                        None => {
                            let net = builder.inv(ins[i]);
                            inv_cache[i] = Some(net);
                            net
                        }
                    };
                    lits.push(lit);
                }
                _ => {}
            }
        }
        debug_assert!(
            !lits.is_empty(),
            "all-dash rows collapse to constants before SOP lowering"
        );
        let mut cube = lits[0];
        for &lit in &lits[1..] {
            cube = builder.and2(cube, lit);
        }
        cube_nets.push(cube);
    }
    let mut cover = cube_nets[0];
    for &cube in &cube_nets[1..] {
        cover = builder.or2(cover, cube);
    }
    if out_one {
        cover
    } else {
        builder.inv(cover)
    }
}

// --------------------------------------------------------------- export

/// Canonical BLIF text for a netlist: nets named `n<id>`, inputs and
/// gates in construction order, one primitive cover per gate, `.wide`
/// annotations for explicitly upsized gates. `parse(export(n))`
/// reconstructs the netlist gate-for-gate with identical ids whenever
/// the netlist declared its primary inputs first (as the builders here
/// do), which the differential tests rely on.
pub fn export(netlist: &Netlist, name: &str) -> String {
    let mut out = String::new();
    out.push_str(&format!(".model {name}\n"));
    write_net_list(&mut out, ".inputs", netlist.inputs());
    write_net_list(&mut out, ".outputs", netlist.outputs());
    for gate in netlist.gates() {
        out.push_str(".names");
        for input in gate.inputs() {
            out.push_str(&format!(" n{}", input.index()));
        }
        out.push_str(&format!(" n{}\n", gate.output().index()));
        out.push_str(cover_for(gate.kind()));
    }
    for (gi, gate) in netlist.gates().iter().enumerate() {
        if netlist.is_explicitly_wide(GateId(gi as u32)) {
            out.push_str(&format!(".wide n{}\n", gate.output().index()));
        }
    }
    out.push_str(".end\n");
    out
}

/// Writes a `.inputs`/`.outputs` list, wrapped with `\` continuations
/// every ten names so wide buses stay readable (and the round-trip
/// exercises the continuation lexer).
fn write_net_list(out: &mut String, directive: &str, nets: &[NetId]) {
    if nets.is_empty() {
        out.push_str(directive);
        out.push('\n');
        return;
    }
    out.push_str(directive);
    for (i, net) in nets.iter().enumerate() {
        if i > 0 && i % 10 == 0 {
            out.push_str(" \\\n ");
        }
        out.push_str(&format!(" n{}", net.index()));
    }
    out.push('\n');
}

/// The canonical exported cover of each primitive (recognized back to
/// the identical cell by [`parse`]).
fn cover_for(kind: GateKind) -> &'static str {
    match kind {
        GateKind::Inv => "0 1\n",
        GateKind::Nand2 => "11 0\n",
        GateKind::Nand3 => "111 0\n",
        GateKind::Nor2 => "00 1\n",
        GateKind::Nor3 => "000 1\n",
        GateKind::Aoi21 => "0-0 1\n-00 1\n",
        GateKind::Oai21 => "--0 1\n00- 1\n",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adder::LadnerFischerAdder;

    fn eval_outputs(model: &BlifModel, assignment: &[bool]) -> u64 {
        let values = model.netlist().evaluate(assignment);
        values.bus_u64(model.netlist().outputs())
    }

    #[test]
    fn decoder_fixture_is_one_hot() {
        let model = parse(fixtures::DECODER).expect("decoder fixture parses");
        assert_eq!(model.name(), "decoder4x16");
        assert_eq!(model.netlist().inputs().len(), 4);
        assert_eq!(model.netlist().outputs().len(), 16);
        for address in 0..16u64 {
            let bits: Vec<bool> = (0..4).map(|i| (address >> i) & 1 == 1).collect();
            assert_eq!(
                eval_outputs(&model, &bits),
                1 << address,
                "address {address}"
            );
        }
    }

    #[test]
    fn multiplier_fixture_multiplies() {
        let model = parse(fixtures::MULTIPLIER).expect("multiplier fixture parses");
        assert_eq!(model.netlist().inputs().len(), 8);
        assert_eq!(model.netlist().outputs().len(), 8);
        for a in 0..16u64 {
            for b in 0..16u64 {
                let bits: Vec<bool> = (0..4)
                    .map(|i| (a >> i) & 1 == 1)
                    .chain((0..4).map(|i| (b >> i) & 1 == 1))
                    .collect();
                assert_eq!(eval_outputs(&model, &bits), a * b, "{a} * {b}");
            }
        }
    }

    #[test]
    fn adder_round_trips_gate_for_gate() {
        let adder = LadnerFischerAdder::new(16);
        let text = export(adder.netlist(), "lf16");
        let model = parse(&text).expect("exported adder parses");
        let original = adder.netlist();
        let reimported = model.netlist();
        assert_eq!(original.inputs(), reimported.inputs());
        assert_eq!(original.outputs(), reimported.outputs());
        assert_eq!(original.gates().len(), reimported.gates().len());
        for (gi, (a, b)) in original.gates().iter().zip(reimported.gates()).enumerate() {
            assert_eq!(a.kind().name(), b.kind().name(), "gate {gi}");
            assert_eq!(a.inputs(), b.inputs(), "gate {gi}");
            assert_eq!(a.output(), b.output(), "gate {gi}");
            let id = GateId(gi as u32);
            assert_eq!(
                original.is_explicitly_wide(id),
                reimported.is_explicitly_wide(id),
                "gate {gi} width annotation"
            );
        }
        // And the canonical export is a fixpoint.
        assert_eq!(text, export(reimported, "lf16"));
    }

    #[test]
    fn latch_and_subckt_are_rejected_with_line_context() {
        let text = ".model seq\n.inputs a\n.outputs q\n.latch a q re clk 0\n.end\n";
        let err = parse(text).expect_err("latches are unsupported");
        assert_eq!(err.line(), Some(4));
        assert!(err.to_string().contains(".latch"), "{err}");

        let text = ".model hier\n.inputs a\n.outputs y\n.subckt sub x=a y=y\n.end\n";
        let err = parse(text).expect_err("subcircuits are unsupported");
        assert_eq!(err.line(), Some(4));
        assert!(err.to_string().contains(".subckt"), "{err}");
    }

    #[test]
    fn malformed_text_yields_typed_errors() {
        for (text, needle) in [
            ("", "missing .model"),
            (".model a\n.model b\n", "multiple .model"),
            (".model m\n.inputs a a\n", "duplicate primary input"),
            (".model m\n.inputs a\n.names a a\n1 1\n", "driven twice"),
            (".model m\n.inputs a\n.names b y\n1 1\n", "undefined net"),
            (
                ".model m\n.inputs a\n.outputs z\n.names a y\n1 1\n",
                "undefined output",
            ),
            (".model m\n.inputs a\n01 1\n", "outside a .names"),
            (
                ".model m\n.inputs a b\n.names a b y\n0 1\n",
                "not 2 columns",
            ),
            (".model m\n.inputs a\n.names a y\nx 1\n", "not 1 columns"),
            (".model m\n.inputs a\n.names a y\n1 2\n", "must be 0 or 1"),
            (
                ".model m\n.inputs a b\n.names a b y\n11 1\n00 0\n",
                "inconsistent cover",
            ),
            (".model m\n.inputs a\n.wide a\n", "no driving gate"),
            (".model m\n.inputs a\n.wide q\n", "undefined net"),
            (".model m\n.frob a\n", "unknown directive"),
        ] {
            let err = parse(text).expect_err(text);
            assert!(
                err.to_string().contains(needle),
                "`{text}` should mention `{needle}`, got `{err}`"
            );
        }
    }

    #[test]
    fn cycles_are_rejected() {
        let text =
            ".model m\n.inputs a\n.outputs y\n.names a y q\n11 1\n.names a q y\n11 1\n.end\n";
        let err = parse(text).expect_err("cycle");
        assert!(err.to_string().contains("cycle"), "{err}");
    }

    #[test]
    fn oversized_names_are_rejected() {
        let wide: Vec<String> = (0..=MAX_NAMES_INPUTS).map(|i| format!("x{i}")).collect();
        let text = format!(
            ".model m\n.inputs {}\n.outputs y\n.names {} y\n{} 1\n.end\n",
            wide.join(" "),
            wide.join(" "),
            "1".repeat(wide.len())
        );
        let err = parse(&text).expect_err("oversized");
        assert!(matches!(err, Error::Oversized { .. }), "{err}");
    }

    #[test]
    fn buffers_alias_and_constants_synthesize() {
        let text = ".model m\n.inputs a\n.outputs y k1 k0\n\
                    .names a y\n1 1\n\
                    .names k1\n1\n\
                    .names k0\n0\n.end\n";
        let model = parse(text).expect("parses");
        // The buffer adds no gate; the constants share one tie inverter.
        let n = model.netlist();
        assert_eq!(n.outputs()[0], n.inputs()[0]);
        for bit in [false, true] {
            let v = n.evaluate(&[bit]);
            assert_eq!(v.get(n.outputs()[0]), bit);
            assert!(v.get(n.outputs()[1]), "k1 is constant one");
            assert!(!v.get(n.outputs()[2]), "k0 is constant zero");
        }
    }

    #[test]
    fn sop_fallback_handles_odd_functions() {
        // 3-input XOR matches no cell and exercises the SOP path.
        let text = ".model m\n.inputs a b c\n.outputs y\n.names a b c y\n\
                    001 1\n010 1\n100 1\n111 1\n.end\n";
        let model = parse(text).expect("parses");
        let n = model.netlist();
        for x in 0..8u32 {
            let bits: Vec<bool> = (0..3).map(|i| (x >> i) & 1 == 1).collect();
            let want = (x.count_ones() & 1) == 1;
            assert_eq!(n.evaluate(&bits).get(n.outputs()[0]), want, "x={x}");
        }
    }

    #[test]
    fn off_set_sop_and_dont_care_columns_lower_correctly() {
        // f = !((a & !c) | b) written as an off-set cover with a dummy
        // input d that every row ignores.
        let text = ".model m\n.inputs a b c d\n.outputs y\n.names a b c d y\n\
                    1-0- 0\n-1-- 0\n.end\n";
        let model = parse(text).expect("parses");
        let n = model.netlist();
        for x in 0..16u32 {
            let bits: Vec<bool> = (0..4).map(|i| (x >> i) & 1 == 1).collect();
            let (a, b, c) = (bits[0], bits[1], bits[2]);
            let want = !((a && !c) || b);
            assert_eq!(n.evaluate(&bits).get(n.outputs()[0]), want, "x={x}");
        }
    }

    #[test]
    fn continuations_and_comments_lex() {
        let text = "# a comment\n.model m # trailing\n.inputs a \\\n b\n\
                    .outputs y\n.names a b y # and here\n11 1\n.end\n";
        let model = parse(text).expect("parses");
        assert_eq!(model.input_names(), ["a", "b"]);
    }
}
