//! Ergonomic construction of [`Module`]s.
//!
//! The builder uniquifies names, tracks widths, and offers one method per
//! primitive so generator code reads like a structural HDL description.

use crate::netlist::{addr_width, Instance, Module, Net, NetId, Port, PortDir, PrimOp};
use std::collections::BTreeMap;

/// Incremental module builder.
///
/// # Examples
///
/// ```
/// use memsync_rtl::builder::ModuleBuilder;
///
/// let mut b = ModuleBuilder::new("adder");
/// let x = b.input("x", 8);
/// let y = b.input("y", 8);
/// let sum = b.add(x, y, "sum");
/// b.output("sum_out", sum);
/// let module = b.finish();
/// assert_eq!(module.ports.len(), 3);
/// ```
#[derive(Debug)]
pub struct ModuleBuilder {
    name: String,
    ports: Vec<Port>,
    nets: Vec<Net>,
    instances: Vec<Instance>,
    name_counts: BTreeMap<String, u32>,
}

impl ModuleBuilder {
    /// Starts a new module.
    pub fn new(name: impl Into<String>) -> Self {
        ModuleBuilder {
            name: name.into(),
            ports: Vec::new(),
            nets: Vec::new(),
            instances: Vec::new(),
            name_counts: BTreeMap::new(),
        }
    }

    fn unique(&mut self, base: &str) -> String {
        let count = self.name_counts.entry(base.to_owned()).or_insert(0);
        *count += 1;
        if *count == 1 {
            base.to_owned()
        } else {
            format!("{base}_{}", *count - 1)
        }
    }

    /// Creates a fresh net.
    pub fn net(&mut self, name: &str, width: u32) -> NetId {
        assert!(width >= 1, "net `{name}` must be at least 1 bit wide");
        let name = self.unique(name);
        let id = NetId(self.nets.len());
        self.nets.push(Net { name, width });
        id
    }

    /// Declares an input port and returns its net.
    pub fn input(&mut self, name: &str, width: u32) -> NetId {
        let net = self.net(name, width);
        self.ports.push(Port {
            name: self.nets[net.0].name.clone(),
            dir: PortDir::Input,
            net,
        });
        net
    }

    /// Declares an output port driven by an existing net.
    pub fn output(&mut self, name: &str, net: NetId) {
        self.ports.push(Port {
            name: name.to_owned(),
            dir: PortDir::Output,
            net,
        });
    }

    fn inst(&mut self, base: &str, op: PrimOp, inputs: Vec<NetId>, outputs: Vec<NetId>) {
        let name = self.unique(base);
        self.instances.push(Instance {
            name,
            op,
            inputs,
            outputs,
        });
    }

    /// Width of a net created so far.
    pub fn width(&self, net: NetId) -> u32 {
        self.nets[net.0].width
    }

    /// Constant driver.
    pub fn constant(&mut self, value: u64, width: u32, name: &str) -> NetId {
        let out = self.net(name, width);
        self.inst("c", PrimOp::Const { value }, vec![], vec![out]);
        out
    }

    /// Bitwise NOT.
    pub fn not(&mut self, a: NetId, name: &str) -> NetId {
        let out = self.net(name, self.width(a));
        self.inst("inv", PrimOp::Not, vec![a], vec![out]);
        out
    }

    /// Variadic bitwise AND.
    ///
    /// # Panics
    ///
    /// Panics if fewer than two inputs are given.
    pub fn and(&mut self, inputs: &[NetId], name: &str) -> NetId {
        assert!(inputs.len() >= 2, "and requires at least two inputs");
        let out = self.net(name, self.width(inputs[0]));
        self.inst("and", PrimOp::And, inputs.to_vec(), vec![out]);
        out
    }

    /// Variadic bitwise OR.
    ///
    /// # Panics
    ///
    /// Panics if fewer than two inputs are given.
    pub fn or(&mut self, inputs: &[NetId], name: &str) -> NetId {
        assert!(inputs.len() >= 2, "or requires at least two inputs");
        let out = self.net(name, self.width(inputs[0]));
        self.inst("or", PrimOp::Or, inputs.to_vec(), vec![out]);
        out
    }

    /// Variadic bitwise XOR.
    ///
    /// # Panics
    ///
    /// Panics if fewer than two inputs are given.
    pub fn xor(&mut self, inputs: &[NetId], name: &str) -> NetId {
        assert!(inputs.len() >= 2, "xor requires at least two inputs");
        let out = self.net(name, self.width(inputs[0]));
        self.inst("xor", PrimOp::Xor, inputs.to_vec(), vec![out]);
        out
    }

    /// N-way mux; `select` picks among `data`.
    ///
    /// # Panics
    ///
    /// Panics if `data` is empty.
    pub fn mux(&mut self, select: NetId, data: &[NetId], name: &str) -> NetId {
        assert!(!data.is_empty(), "mux requires at least one data input");
        let out = self.net(name, self.width(data[0]));
        let mut inputs = vec![select];
        inputs.extend_from_slice(data);
        self.inst("mux", PrimOp::Mux, inputs, vec![out]);
        out
    }

    /// Wrapping addition.
    pub fn add(&mut self, a: NetId, b: NetId, name: &str) -> NetId {
        let out = self.net(name, self.width(a));
        self.inst("add", PrimOp::Add, vec![a, b], vec![out]);
        out
    }

    /// Wrapping subtraction.
    pub fn sub(&mut self, a: NetId, b: NetId, name: &str) -> NetId {
        let out = self.net(name, self.width(a));
        self.inst("sub", PrimOp::Sub, vec![a, b], vec![out]);
        out
    }

    /// Wrapping multiplication.
    pub fn mul(&mut self, a: NetId, b: NetId, name: &str) -> NetId {
        let out = self.net(name, self.width(a));
        self.inst("mul", PrimOp::Mul, vec![a, b], vec![out]);
        out
    }

    /// Equality comparison (1-bit result).
    pub fn eq(&mut self, a: NetId, b: NetId, name: &str) -> NetId {
        let out = self.net(name, 1);
        self.inst("eq", PrimOp::Eq, vec![a, b], vec![out]);
        out
    }

    /// Inequality comparison (1-bit result).
    pub fn ne(&mut self, a: NetId, b: NetId, name: &str) -> NetId {
        let out = self.net(name, 1);
        self.inst("ne", PrimOp::Ne, vec![a, b], vec![out]);
        out
    }

    /// Unsigned less-than (1-bit result).
    pub fn lt(&mut self, a: NetId, b: NetId, name: &str) -> NetId {
        let out = self.net(name, 1);
        self.inst("lt", PrimOp::Lt, vec![a, b], vec![out]);
        out
    }

    /// Logical shift left by a constant amount.
    pub fn shl(&mut self, a: NetId, amount: u32, name: &str) -> NetId {
        let out = self.net(name, self.width(a));
        self.inst("shl", PrimOp::Shl { amount }, vec![a], vec![out]);
        out
    }

    /// Logical shift right by a constant amount.
    pub fn shr(&mut self, a: NetId, amount: u32, name: &str) -> NetId {
        let out = self.net(name, self.width(a));
        self.inst("shr", PrimOp::Shr { amount }, vec![a], vec![out]);
        out
    }

    /// OR-reduction to one bit.
    pub fn reduce_or(&mut self, a: NetId, name: &str) -> NetId {
        let out = self.net(name, 1);
        self.inst("ror", PrimOp::ReduceOr, vec![a], vec![out]);
        out
    }

    /// AND-reduction to one bit.
    pub fn reduce_and(&mut self, a: NetId, name: &str) -> NetId {
        let out = self.net(name, 1);
        self.inst("rand", PrimOp::ReduceAnd, vec![a], vec![out]);
        out
    }

    /// Concatenation; `fields[0]` becomes the most significant bits.
    ///
    /// # Panics
    ///
    /// Panics if `fields` is empty.
    pub fn concat(&mut self, fields: &[NetId], name: &str) -> NetId {
        assert!(!fields.is_empty(), "concat requires at least one field");
        let width = fields.iter().map(|f| self.width(*f)).sum();
        let out = self.net(name, width);
        self.inst("cat", PrimOp::Concat, fields.to_vec(), vec![out]);
        out
    }

    /// Bit slice `[hi:lo]`.
    ///
    /// # Panics
    ///
    /// Panics if the slice exceeds the input width or `hi < lo`.
    pub fn slice(&mut self, a: NetId, hi: u32, lo: u32, name: &str) -> NetId {
        assert!(hi >= lo, "slice hi must be >= lo");
        assert!(
            hi < self.width(a),
            "slice [{hi}:{lo}] exceeds width {}",
            self.width(a)
        );
        let out = self.net(name, hi - lo + 1);
        self.inst("bits", PrimOp::Slice { hi, lo }, vec![a], vec![out]);
        out
    }

    /// Full-width slice driving an existing net — a zero-cost wire alias
    /// used to close combinational feedback-free loops between pre-created
    /// nets and later-computed values.
    ///
    /// # Panics
    ///
    /// Panics if the slice does not match the destination width.
    pub fn slice_into(&mut self, a: NetId, hi: u32, lo: u32, dst: NetId) {
        assert!(hi >= lo && hi < self.width(a), "slice_into range invalid");
        assert_eq!(hi - lo + 1, self.width(dst), "slice_into width mismatch");
        self.inst("bits", PrimOp::Slice { hi, lo }, vec![a], vec![dst]);
    }

    /// Plain D register.
    pub fn register(&mut self, d: NetId, init: u64, name: &str) -> NetId {
        let out = self.net(name, self.width(d));
        self.inst(
            "reg",
            PrimOp::Register {
                init,
                has_enable: false,
                has_reset: false,
            },
            vec![d],
            vec![out],
        );
        out
    }

    /// D register with clock enable.
    pub fn register_en(&mut self, d: NetId, en: NetId, init: u64, name: &str) -> NetId {
        let out = self.net(name, self.width(d));
        self.inst(
            "reg",
            PrimOp::Register {
                init,
                has_enable: true,
                has_reset: false,
            },
            vec![d, en],
            vec![out],
        );
        out
    }

    /// Registers `d` into an existing net `q` (feedback registers: create
    /// `q` first with [`ModuleBuilder::net`], build logic reading `q`, then
    /// close the loop here).
    ///
    /// # Panics
    ///
    /// Panics if the widths of `d` and `q` differ.
    pub fn register_into(&mut self, d: NetId, q: NetId, init: u64) {
        assert_eq!(self.width(d), self.width(q), "register_into width mismatch");
        self.inst(
            "reg",
            PrimOp::Register {
                init,
                has_enable: false,
                has_reset: false,
            },
            vec![d],
            vec![q],
        );
    }

    /// Registers `d` into an existing net `q` with a clock enable.
    ///
    /// # Panics
    ///
    /// Panics if the widths of `d` and `q` differ.
    pub fn register_en_into(&mut self, d: NetId, en: NetId, q: NetId, init: u64) {
        assert_eq!(
            self.width(d),
            self.width(q),
            "register_en_into width mismatch"
        );
        self.inst(
            "reg",
            PrimOp::Register {
                init,
                has_enable: true,
                has_reset: false,
            },
            vec![d, en],
            vec![q],
        );
    }

    /// True-dual-port BRAM; returns `(dout_a, dout_b)`.
    #[allow(clippy::too_many_arguments)]
    pub fn bram(
        &mut self,
        depth: u32,
        width: u32,
        addr_a: NetId,
        din_a: NetId,
        we_a: NetId,
        en_a: NetId,
        addr_b: NetId,
        din_b: NetId,
        we_b: NetId,
        en_b: NetId,
        name: &str,
    ) -> (NetId, NetId) {
        let dout_a = self.net(&format!("{name}_dout_a"), width);
        let dout_b = self.net(&format!("{name}_dout_b"), width);
        self.inst(
            name,
            PrimOp::Bram { depth, width },
            vec![addr_a, din_a, we_a, en_a, addr_b, din_b, we_b, en_b],
            vec![dout_a, dout_b],
        );
        (dout_a, dout_b)
    }

    /// CAM macro; returns `(match, match_index, match_data)`.
    #[allow(clippy::too_many_arguments)]
    pub fn cam(
        &mut self,
        entries: u32,
        key_width: u32,
        data_width: u32,
        search_key: NetId,
        write_key: NetId,
        write_data: NetId,
        write_index: NetId,
        write_en: NetId,
        name: &str,
    ) -> (NetId, NetId, NetId) {
        let m = self.net(&format!("{name}_match"), 1);
        let idx = self.net(&format!("{name}_index"), addr_width(entries));
        let data = self.net(&format!("{name}_data"), data_width);
        self.inst(
            name,
            PrimOp::Cam {
                entries,
                key_width,
                data_width,
            },
            vec![search_key, write_key, write_data, write_index, write_en],
            vec![m, idx, data],
        );
        (m, idx, data)
    }

    /// Finishes the module.
    pub fn finish(self) -> Module {
        Module {
            name: self.name,
            ports: self.ports,
            nets: self.nets,
            instances: self.instances,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netlist::PortDir;

    #[test]
    fn names_are_uniquified() {
        let mut b = ModuleBuilder::new("m");
        let a = b.net("x", 4);
        let c = b.net("x", 4);
        let m = {
            b.output("o1", a);
            b.output("o2", c);
            b.finish()
        };
        assert_eq!(m.nets[a.0].name, "x");
        assert_eq!(m.nets[c.0].name, "x_1");
    }

    #[test]
    fn concat_width_is_sum() {
        let mut b = ModuleBuilder::new("m");
        let a = b.input("a", 3);
        let c = b.input("b", 5);
        let out = b.concat(&[a, c], "cat");
        assert_eq!(b.width(out), 8);
    }

    #[test]
    fn slice_width() {
        let mut b = ModuleBuilder::new("m");
        let a = b.input("a", 16);
        let s = b.slice(a, 11, 4, "mid");
        assert_eq!(b.width(s), 8);
    }

    #[test]
    #[should_panic(expected = "exceeds width")]
    fn slice_out_of_range_panics() {
        let mut b = ModuleBuilder::new("m");
        let a = b.input("a", 4);
        let _ = b.slice(a, 4, 0, "bad");
    }

    #[test]
    fn ports_track_direction() {
        let mut b = ModuleBuilder::new("m");
        let a = b.input("a", 1);
        let n = b.not(a, "na");
        b.output("y", n);
        let m = b.finish();
        assert_eq!(m.ports_in(PortDir::Input).count(), 1);
        assert_eq!(m.ports_in(PortDir::Output).count(), 1);
        assert!(m.port("y").is_some());
    }

    #[test]
    fn bram_outputs_have_data_width() {
        let mut b = ModuleBuilder::new("m");
        let addr = b.input("addr", 9);
        let din = b.input("din", 36);
        let we = b.input("we", 1);
        let en = b.input("en", 1);
        let (da, db) = b.bram(512, 36, addr, din, we, en, addr, din, we, en, "ram");
        assert_eq!(b.width(da), 36);
        assert_eq!(b.width(db), 36);
    }

    #[test]
    fn cam_index_width_matches_entries() {
        let mut b = ModuleBuilder::new("m");
        let key = b.input("key", 11);
        let wkey = b.input("wkey", 11);
        let wdata = b.input("wdata", 4);
        let widx = b.input("widx", 3);
        let we = b.input("we", 1);
        let (_m, idx, data) = b.cam(8, 11, 4, key, wkey, wdata, widx, we, "deplist");
        assert_eq!(b.width(idx), 3);
        assert_eq!(b.width(data), 4);
    }
}
