//! The one evaluation semantics of hic operators and user functions: the
//! 32-bit datapath's. Operands truncate to [`DATAPATH_WIDTH`] bits;
//! comparisons, division, remainder and right shifts are unsigned; shift
//! amounts are masked to 5 bits; division or remainder by zero yields 0.
//! The simulator (`memsync-sim`), constant folding and the serve pipeline
//! model compute these values, and so does the RTL [`crate::codegen`]
//! emits, for every operator it synthesizes (all but `/` and `%`).
//!
//! User combinational functions (`f`, `g`, `h` in Figure 1) have no bodies
//! in hic — they stand for library combinational logic — so they are given a
//! fixed deterministic definition: a mix network over the arguments seeded
//! by the function name. The RTL codegen instantiates the same network.

use memsync_hic::ast::{BinaryOp, UnaryOp};

/// FNV-1a hash of a function name, used as the seed of its mix network.
pub fn name_seed(name: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in name.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// The deterministic stand-in for a user combinational function: a rotate/
/// xor/add fold of the arguments, seeded by the name, computed in the
/// 32-bit datapath domain so the generated RTL network (built from
/// `Shl`/`Shr`/`Or`/`Xor`/`Add` primitives) produces bit-identical results.
pub fn call_function(name: &str, args: &[i64]) -> i64 {
    call_function_seeded(name_seed(name), args)
}

/// [`call_function`] with the name hash precomputed — hot callers (the
/// serve fast-path backend evaluates one `g()` per packet per egress
/// consumer) hash the name once and fold only the arguments per call.
pub fn call_function_seeded(seed: u64, args: &[i64]) -> i64 {
    let mut acc = seed as u32;
    for &a in args {
        let a = a as u32;
        acc = acc.rotate_left(5) ^ a;
        acc = acc.wrapping_add(a.rotate_left(13));
    }
    i64::from(acc)
}

/// Masks a value to `width` bits (two's complement, zero-extended container).
pub fn mask_to_width(value: i64, width: u32) -> i64 {
    if width >= 64 {
        value
    } else {
        value & ((1i64 << width) - 1)
    }
}

/// The hardware datapath width used by the synthesized threads: hic `int`
/// is 32 bits, and all temporaries are carried at this width.
pub const DATAPATH_WIDTH: u32 = 32;

/// Evaluates a binary operator in the 32-bit datapath domain (what the
/// generated RTL computes): operands are truncated to 32 bits, the result
/// is zero-extended back into the `i64` container. Comparisons are
/// unsigned, matching the RTL `Lt` primitive.
pub fn eval_binary_datapath(op: BinaryOp, a: i64, b: i64) -> i64 {
    let ua = a as u32;
    let ub = b as u32;
    let r: u32 = match op {
        BinaryOp::Or => u32::from(ua != 0 || ub != 0),
        BinaryOp::And => u32::from(ua != 0 && ub != 0),
        BinaryOp::BitOr => ua | ub,
        BinaryOp::BitXor => ua ^ ub,
        BinaryOp::BitAnd => ua & ub,
        BinaryOp::Eq => u32::from(ua == ub),
        BinaryOp::Ne => u32::from(ua != ub),
        BinaryOp::Lt => u32::from(ua < ub),
        BinaryOp::Le => u32::from(ua <= ub),
        BinaryOp::Gt => u32::from(ua > ub),
        BinaryOp::Ge => u32::from(ua >= ub),
        BinaryOp::Shl => ua.wrapping_shl(ub & 31),
        BinaryOp::Shr => ua.wrapping_shr(ub & 31),
        BinaryOp::Add => ua.wrapping_add(ub),
        BinaryOp::Sub => ua.wrapping_sub(ub),
        BinaryOp::Mul => ua.wrapping_mul(ub),
        BinaryOp::Div => ua.checked_div(ub).unwrap_or(0),
        BinaryOp::Rem => {
            if ub == 0 {
                0
            } else {
                ua % ub
            }
        }
    };
    i64::from(r)
}

/// Evaluates a unary operator in the 32-bit datapath domain.
pub fn eval_unary_datapath(op: UnaryOp, a: i64) -> i64 {
    let ua = a as u32;
    let r: u32 = match op {
        UnaryOp::Neg => ua.wrapping_neg(),
        UnaryOp::Not => u32::from(ua == 0),
        UnaryOp::BitNot => !ua,
    };
    i64::from(r)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic_wraps() {
        assert_eq!(
            eval_binary_datapath(BinaryOp::Add, 0x7fff_ffff, 1),
            0x8000_0000
        );
        assert_eq!(eval_binary_datapath(BinaryOp::Mul, 1 << 30, 4), 0);
        assert_eq!(eval_binary_datapath(BinaryOp::Sub, 0, 1), 0xffff_ffff);
    }

    #[test]
    fn division_by_zero_is_zero() {
        assert_eq!(eval_binary_datapath(BinaryOp::Div, 42, 0), 0);
        assert_eq!(eval_binary_datapath(BinaryOp::Rem, 42, 0), 0);
        // Only the low 32 bits of the divisor count: 2^32 is zero.
        assert_eq!(eval_binary_datapath(BinaryOp::Div, 42, 1 << 32), 0);
    }

    #[test]
    fn comparisons_are_boolean() {
        assert_eq!(eval_binary_datapath(BinaryOp::Lt, 1, 2), 1);
        assert_eq!(eval_binary_datapath(BinaryOp::Ge, 1, 2), 0);
        assert_eq!(eval_binary_datapath(BinaryOp::And, 5, 0), 0);
        assert_eq!(eval_binary_datapath(BinaryOp::Or, 5, 0), 1);
        // 0/1 however wide the operands: -1 is 0xffff_ffff, not below 0.
        assert_eq!(eval_binary_datapath(BinaryOp::Gt, -1, 0), 1);
        assert_eq!(eval_binary_datapath(BinaryOp::Eq, -1, 0xffff_ffff), 1);
    }

    #[test]
    fn shift_is_logical_right() {
        assert_eq!(eval_binary_datapath(BinaryOp::Shr, -1, 28), 15);
        // Shift amounts are masked to 5 bits: 33 shifts by 1.
        assert_eq!(eval_binary_datapath(BinaryOp::Shr, 8, 33), 4);
        assert_eq!(eval_binary_datapath(BinaryOp::Shl, 1, 31), 0x8000_0000);
    }

    #[test]
    fn unary_ops() {
        assert_eq!(eval_unary_datapath(UnaryOp::Neg, 5), 0xffff_fffb);
        assert_eq!(eval_unary_datapath(UnaryOp::Not, 0), 1);
        assert_eq!(eval_unary_datapath(UnaryOp::Not, 7), 0);
        // Only the low 32 bits are tested for zero.
        assert_eq!(eval_unary_datapath(UnaryOp::Not, 1 << 32), 1);
        assert_eq!(eval_unary_datapath(UnaryOp::BitNot, 0), 0xffff_ffff);
    }

    #[test]
    fn calls_are_deterministic_and_name_sensitive() {
        let a = call_function("f", &[1, 2]);
        let b = call_function("f", &[1, 2]);
        let c = call_function("g", &[1, 2]);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn calls_are_argument_order_sensitive() {
        assert_ne!(call_function("f", &[1, 2]), call_function("f", &[2, 1]));
    }

    #[test]
    fn datapath_ops_are_32bit() {
        assert_eq!(eval_binary_datapath(BinaryOp::Add, 0xffff_ffff, 1), 0);
        assert_eq!(
            eval_binary_datapath(BinaryOp::Lt, -1, 0),
            0,
            "unsigned compare"
        );
        assert_eq!(eval_unary_datapath(UnaryOp::BitNot, 0), 0xffff_ffff);
        assert_eq!(eval_unary_datapath(UnaryOp::Neg, 1), 0xffff_ffff);
    }

    #[test]
    fn call_fits_in_32_bits() {
        let v = call_function("f", &[1, 2, 3]);
        assert!(v >= 0 && v <= i64::from(u32::MAX));
    }

    #[test]
    fn mask_widths() {
        assert_eq!(mask_to_width(0x1ff, 8), 0xff);
        assert_eq!(mask_to_width(-1, 4), 15);
        assert_eq!(mask_to_width(123, 64), 123);
    }
}
