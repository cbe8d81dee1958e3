"""Shape-specialized C source emitter for the native codegen backend.

Emits one self-contained C translation unit per (conv geometry,
fused-epilogue) signature -- every loop bound is baked as a ``#define``, so
the compiler sees compile-time-constant trip counts.  Each kernel is an
im2col gather (exactly the reference :func:`repro.kernels.conv.im2col`
ordering) into a scratch matrix, one GEMM per sample, then the fused
affine/activation epilogue in a single pass over the output.

**Bitwise identity is the contract, not a goal.**  The GEMMs are *not*
open-coded: the generated kernels call back into numpy's own vendored
OpenBLAS ``cblas_dgemm`` through a function pointer
(:mod:`repro.runtime.blas`), so the float additions happen in the
same order, in the same library, as ``np.matmul``.  The epilogue ops are
restricted to a whitelist whose C forms were checked against the numpy
ufuncs corner-by-corner (``relu`` keeps numpy's ``maximum`` tie/NaN
behaviour, ``clamp`` keeps ``np.clip``'s ``-0.0`` and NaN propagation,
scalars are baked as C99 hex-float literals, and ``-ffp-contract=off``
forbids FMA contraction).  Ops without an exactly-matching C form
(``exp``/``tanh``/``sigmoid``/``pow`` -- libm is not ulp-identical) are
simply not admitted; :func:`epilogue_spec` returns ``None`` and numpy
serves the epilogue.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

__all__ = [
    "ConvGeom",
    "ElemOpSpec",
    "ElemRef",
    "EpilogueSpec",
    "c_double",
    "emit_conv",
    "epilogue_spec",
]

#: Elementwise ops with a C form proven bitwise-identical to the numpy
#: ufunc.  ``exp``/``log``/``tanh``/``sigmoid``/``pow`` are excluded:
#: libm's transcendentals are correct but not bit-identical to numpy's.
NATIVE_ELEM_OPS = ("add", "sub", "mul", "div", "neg", "abs", "sqrt",
                   "relu", "clamp")
_BINARY = ("add", "sub", "mul", "div")


def c_double(value: float) -> str:
    """Render a float as a C99 hex literal -- exact, no decimal rounding."""
    value = float(value)
    if math.isnan(value) or math.isinf(value):
        raise ValueError(f"cannot bake {value!r} as a C literal")
    return f"({value.hex()})"


@dataclass(frozen=True)
class ElemRef:
    """One operand of an elementwise op.

    ``kind`` is ``"chain"`` (the running value), ``"extern"`` (a
    per-channel constant array passed at run time, ``index`` into the
    extern pointer table) or ``"scalar"`` (a constant baked into the source
    as a hex-float literal).
    """

    kind: str
    index: int = -1
    value: float = 0.0

    def detail(self) -> str:
        if self.kind == "chain":
            return "c"
        if self.kind == "extern":
            return f"e{self.index}"
        return f"k{float(self.value).hex()}"


@dataclass(frozen=True)
class ElemOpSpec:
    """One whitelisted elementwise op with resolved operands."""

    op: str
    refs: Tuple[ElemRef, ...]
    lo: Optional[float] = None
    hi: Optional[float] = None

    def detail(self) -> str:
        args = ",".join(ref.detail() for ref in self.refs)
        if self.op == "clamp":
            lo = "_" if self.lo is None else float(self.lo).hex()
            hi = "_" if self.hi is None else float(self.hi).hex()
            return f"clamp[{lo},{hi}]({args})"
        return f"{self.op}({args})"


@dataclass(frozen=True)
class EpilogueSpec:
    """Fused conv epilogue: ``*= scale``, ``+= shift[ch]``, post ops.

    ``externs`` counts the per-channel arrays the post ops read.
    """

    has_scale: bool
    has_shift: bool
    ops: Tuple[ElemOpSpec, ...] = ()
    externs: int = 0

    def detail(self) -> str:
        parts: List[str] = []
        if self.has_scale:
            parts.append("s")
        if self.has_shift:
            parts.append("b")
        parts.extend(op.detail() for op in self.ops)
        return ";".join(parts)

    def is_empty(self) -> bool:
        return not (self.has_scale or self.has_shift or self.ops)


@dataclass(frozen=True)
class ConvGeom:
    """Baked conv2d geometry (per-sample input, kernel, stride, padding)."""

    c_in: int
    h: int
    w: int
    kh: int
    kw: int
    sh: int
    sw: int
    ph: int
    pw: int
    c_out: int

    @property
    def oh(self) -> int:
        return (self.h + 2 * self.ph - self.kh) // self.sh + 1

    @property
    def ow(self) -> int:
        return (self.w + 2 * self.pw - self.kw) // self.sw + 1

    @property
    def patches(self) -> int:
        return self.oh * self.ow

    @property
    def k_rows(self) -> int:
        return self.c_in * self.kh * self.kw


def _build_ops(
    operations: Sequence[Tuple[str, Sequence[tuple], dict]],
    channels: int,
) -> Optional[Tuple[Tuple[ElemOpSpec, ...], int]]:
    """Epilogue spec-builder core; ``None`` whenever anything is inadmissible.

    Each operand is ``("chain",)``, ``("scalar", float)`` or
    ``("extern", shape)``, where an extern must be per-channel (shape
    ``(C, 1, 1)`` or ``(1, C, 1, 1)``: the spatial dims are not known until
    run time).  Extern slots are assigned in traversal order, which is the
    order the caller must pass the arrays at runtime.
    """
    specs: List[ElemOpSpec] = []
    externs = 0
    for op, operands, ctx in operations:
        if op not in NATIVE_ELEM_OPS:
            return None
        refs: List[ElemRef] = []
        for operand in operands:
            kind = operand[0]
            if kind == "chain":
                refs.append(ElemRef("chain"))
            elif kind == "scalar":
                value = float(operand[1])
                if math.isnan(value) or math.isinf(value):
                    return None
                refs.append(ElemRef("scalar", value=value))
            elif kind == "extern":
                if tuple(operand[1]) not in ((channels, 1, 1), (1, channels, 1, 1)):
                    return None
                refs.append(ElemRef("extern", index=externs))
                externs += 1
            else:
                return None
        expected = 2 if op in _BINARY else 1
        if len(refs) != expected:
            return None
        lo = hi = None
        if op == "clamp":
            lo = ctx.get("min")
            hi = ctx.get("max")
            lo = None if lo is None or math.isinf(lo) else float(lo)
            hi = None if hi is None or math.isinf(hi) else float(hi)
            if (lo is not None and math.isnan(lo)) or (
                hi is not None and math.isnan(hi)
            ):
                return None
            if lo is not None and hi is not None and lo > hi:
                return None  # np.clip lets the upper bound win; we don't
        specs.append(ElemOpSpec(op, tuple(refs), lo=lo, hi=hi))
    if not specs:
        return None
    return tuple(specs), externs


def epilogue_spec(
    channels: int,
    has_scale: bool,
    has_shift: bool,
    operations: Sequence[Tuple[str, Sequence[tuple], dict]],
) -> Optional[EpilogueSpec]:
    """Build the fused-epilogue spec for a conv step with ``channels``
    output channels, or ``None``."""
    if not operations:
        return EpilogueSpec(has_scale=has_scale, has_shift=has_shift)
    built = _build_ops(operations, int(channels))
    if built is None:
        return None
    ops, externs = built
    return EpilogueSpec(
        has_scale=has_scale, has_shift=has_shift, ops=ops, externs=externs
    )


# --------------------------------------------------------------------------
# C rendering
# --------------------------------------------------------------------------

_PRELUDE = """\
#include <stdint.h>
#include <stdlib.h>
#include <math.h>

typedef int64_t i64;
typedef void (*dgemm_fn)(int, int, int, i64, i64, i64, double,
                         const double*, i64, const double*, i64,
                         double, double*, i64);
#define ROW_MAJOR 101
#define NO_TRANS 111
"""


def _ref_expr(ref: ElemRef) -> str:
    # The loop below maintains ``i`` (flat) and ``c`` (channel) indices
    # directly, so no per-element div/mod is emitted -- integer division
    # in the hot loop costs more than the arithmetic it indexes and
    # defeats vectorisation.
    if ref.kind == "chain":
        return "v"
    if ref.kind == "scalar":
        return c_double(ref.value)
    return f"e{ref.index}[c]"


def _op_lines(spec: ElemOpSpec) -> List[str]:
    refs = [_ref_expr(ref) for ref in spec.refs]
    if spec.op == "add":
        return [f"v = ({refs[0]}) + ({refs[1]});"]
    if spec.op == "sub":
        return [f"v = ({refs[0]}) - ({refs[1]});"]
    if spec.op == "mul":
        return [f"v = ({refs[0]}) * ({refs[1]});"]
    if spec.op == "div":
        return [f"v = ({refs[0]}) / ({refs[1]});"]
    if spec.op == "neg":
        return [f"v = -({refs[0]});"]
    if spec.op == "abs":
        return [f"v = fabs({refs[0]});"]
    if spec.op == "sqrt":
        return [f"v = sqrt({refs[0]});"]
    if spec.op == "relu":
        # np.maximum(x, 0.0): propagates NaN, returns the *second* operand
        # (+0.0) on the -0.0 tie.
        return [
            f"{{ double t = {refs[0]};"
            " v = (t > 0.0) ? t : ((t == t) ? 0.0 : t); }"
        ]
    if spec.op == "clamp":
        # np.clip: lower bound first, keeps -0.0 inside the range,
        # propagates NaN (both comparisons false).
        body = "t"
        if spec.hi is not None:
            body = f"(t > {c_double(spec.hi)}) ? {c_double(spec.hi)} : t"
        if spec.lo is not None:
            body = f"(t < {c_double(spec.lo)}) ? {c_double(spec.lo)} : ({body})"
        return [f"{{ double t = {refs[0]}; v = {body}; }}"]
    raise ValueError(f"unsupported native elementwise op {spec.op!r}")


def _extern_decls(count: int) -> List[str]:
    return [
        f"    const double* e{index} = externs[{index}];"
        for index in range(count)
    ]


def _fused_loop(body: List[str]) -> List[str]:
    """Nested batch/channel/inner loops around one fused element ``body``.

    ``i`` walks the flat output and ``c`` the channel, both by increment --
    the straight-line inner loop indexes every operand contiguously (or
    loop-invariantly), which is what lets the compiler vectorise it and
    what keeps the kernel ahead of a chain of separate numpy ufunc passes
    at large batch sizes.
    """
    lines = [
        "    {",
        "    i64 i = 0;",
        "    for (i64 n = 0; n < batch; ++n) {",
        "        for (i64 c = 0; c < C_OUT; ++c) {",
        "            for (i64 k = 0; k < PATCHES; ++k, ++i) {",
    ]
    lines.extend(f"                {stmt}" for stmt in body)
    lines.extend([
        "                out[i] = v;",
        "            }",
        "        }",
        "    }",
        "    }",
    ])
    return lines


def _epilogue_loop(epilogue: Optional[EpilogueSpec]) -> List[str]:
    """The single fused pass over the step output (``out``/``scale``/``shift``)."""
    if epilogue is None or epilogue.is_empty():
        return []
    body = ["double v = out[i];"]
    if epilogue.has_scale:
        body.append("v *= scale;")
    if epilogue.has_shift:
        body.append("v += shift[c];")
    for op in epilogue.ops:
        body.extend(_op_lines(op))
    return _fused_loop(body)


def emit_conv(geom: ConvGeom, epilogue: Optional[EpilogueSpec]) -> str:
    """C source for one conv2d signature with its fused epilogue."""
    extern_count = epilogue.externs if epilogue is not None else 0
    fast_1x1 = (
        geom.kh == 1 and geom.kw == 1
        and geom.sh == 1 and geom.sw == 1
        and geom.ph == 0 and geom.pw == 0
    )
    defines = [
        f"#define C_IN {geom.c_in}",
        f"#define H_IN {geom.h}",
        f"#define W_IN {geom.w}",
        f"#define KH {geom.kh}",
        f"#define KW {geom.kw}",
        f"#define SH {geom.sh}",
        f"#define SW {geom.sw}",
        f"#define PH {geom.ph}",
        f"#define PW {geom.pw}",
        f"#define C_OUT {geom.c_out}",
        f"#define OH {geom.oh}",
        f"#define OW {geom.ow}",
        "#define PATCHES (OH * OW)",
        "#define K_ROWS (C_IN * KH * KW)",
        "#define SAMPLE (C_OUT * PATCHES)",
    ]
    epi_detail = epilogue.detail() if epilogue is not None else ""
    lines = [
        f"/* repro native conv2d | epilogue: {epi_detail!r} */",
        _PRELUDE,
        *defines,
        "",
        "int repro_kernel(const double* x, const double* w, double* out,",
        "                 i64 batch, void* dgemm_ptr,",
        "                 double scale, const double* shift,",
        "                 const double** externs) {",
        "    dgemm_fn dgemm = (dgemm_fn)dgemm_ptr;",
        "    (void)externs; (void)scale; (void)shift;",
        *_extern_decls(extern_count),
    ]
    if fast_1x1:
        lines.extend([
            "    for (i64 n = 0; n < batch; ++n) {",
            "        const double* xs = x + n * (i64)C_IN * H_IN * W_IN;",
            "        double* os = out + n * (i64)SAMPLE;",
            "        dgemm(ROW_MAJOR, NO_TRANS, NO_TRANS, C_OUT, PATCHES,",
            "              K_ROWS, 1.0, w, K_ROWS, xs, PATCHES, 0.0, os,",
            "              PATCHES);",
            "    }",
        ])
    else:
        lines.extend([
            "    double* cols = (double*)malloc(sizeof(double) *",
            "                                   (size_t)K_ROWS * PATCHES);",
            "    if (!cols) return 1;",
            "    for (i64 n = 0; n < batch; ++n) {",
            "        const double* xs = x + n * (i64)C_IN * H_IN * W_IN;",
            "        double* os = out + n * (i64)SAMPLE;",
            "        for (i64 c = 0; c < C_IN; ++c) {",
            "        for (i64 kh = 0; kh < KH; ++kh) {",
            "        for (i64 kw = 0; kw < KW; ++kw) {",
            "            double* row = cols + ((c * KH + kh) * KW + kw)"
            " * (i64)PATCHES;",
            "            for (i64 oh = 0; oh < OH; ++oh) {",
            "                i64 ih = oh * SH + kh - PH;",
            "                if (ih < 0 || ih >= H_IN) {",
            "                    for (i64 ow = 0; ow < OW; ++ow)",
            "                        row[oh * OW + ow] = 0.0;",
            "                    continue;",
            "                }",
            "                const double* xrow = xs + (c * (i64)H_IN + ih)"
            " * W_IN;",
            "                for (i64 ow = 0; ow < OW; ++ow) {",
            "                    i64 iw = ow * SW + kw - PW;",
            "                    row[oh * OW + ow] =",
            "                        (iw < 0 || iw >= W_IN) ? 0.0 : xrow[iw];",
            "                }",
            "            }",
            "        }}}",
            "        dgemm(ROW_MAJOR, NO_TRANS, NO_TRANS, C_OUT, PATCHES,",
            "              K_ROWS, 1.0, w, K_ROWS, cols, PATCHES, 0.0, os,",
            "              PATCHES);",
            "    }",
            "    free(cols);",
        ])
    lines.extend(_epilogue_loop(epilogue))
    lines.extend(["    return 0;", "}", ""])
    return "\n".join(lines)
