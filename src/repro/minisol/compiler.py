"""minisol compiler driver: source text -> deployable contract."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.errors import CompileError
from repro.evm.assembler import assemble
from repro.minisol import ast_nodes as ast
from repro.minisol.abi import encode_call, mapping_slot, selector
from repro.minisol.codegen import CodeGenerator
from repro.minisol.parser import parse


@dataclass
class FunctionABI:
    """Callable surface of one compiled function."""

    name: str
    signature: str
    selector: int
    param_types: Tuple[str, ...]
    returns_value: bool


@dataclass
class CompiledContract:
    """Compilation artifact: runtime bytecode plus ABI and storage layout."""

    name: str
    code: bytes
    assembly: str
    functions: Dict[str, FunctionABI] = field(default_factory=dict)
    storage_layout: Dict[str, int] = field(default_factory=dict)
    contract_ast: Optional[ast.Contract] = None

    def calldata(self, fn_name: str, *args: int) -> bytes:
        """Encode a call to ``fn_name`` with integer arguments."""
        fn = self.functions.get(fn_name)
        if fn is None:
            raise CompileError(f"no function {fn_name!r} in {self.name}")
        if len(args) != len(fn.param_types):
            raise CompileError(
                f"{fn.signature} expects {len(fn.param_types)} args, "
                f"got {len(args)}")
        return encode_call(fn.signature, args)

    def deploy_code(self) -> bytes:
        """Init bytecode for an on-chain deployment (tx.to == 0 or the
        CREATE opcode): copies the runtime code into memory and returns
        it, solc-style."""
        runtime = self.code
        init_length = 15  # fixed-width prologue below
        prologue = bytes([
            0x61, *len(runtime).to_bytes(2, "big"),   # PUSH2 len
            0x61, *init_length.to_bytes(2, "big"),    # PUSH2 offset
            0x60, 0x00,                               # PUSH1 0
            0x39,                                     # CODECOPY
            0x61, *len(runtime).to_bytes(2, "big"),   # PUSH2 len
            0x60, 0x00,                               # PUSH1 0
            0xF3,                                     # RETURN
        ])
        assert len(prologue) == init_length
        return prologue + runtime

    def slot_of(self, var_name: str, *keys: int) -> int:
        """Storage slot of a state variable (with mapping keys if any)."""
        if var_name not in self.storage_layout:
            raise CompileError(f"no state variable {var_name!r}")
        slot = self.storage_layout[var_name]
        for key in keys:
            slot = mapping_slot(slot, key)
        return slot


def compile_contract(source: str) -> CompiledContract:
    """Compile minisol ``source`` into a :class:`CompiledContract`."""
    contract = parse(source)
    _check(contract)
    generator = CodeGenerator(contract)
    assembly = generator.generate()
    code = assemble(assembly)

    compiled = CompiledContract(
        name=contract.name, code=code, assembly=assembly,
        contract_ast=contract)
    for var in contract.state_vars:
        compiled.storage_layout[var.name] = var.slot

    # Private functions are inlined at call sites and have no external
    # surface: no selector, no dispatch, no ABI entry.
    all_functions: List[ast.Function] = [
        fn for fn in contract.functions if not fn.private]
    for var in contract.state_vars:
        if not var.public:
            continue
        if isinstance(var.type, ast.ScalarType):
            params: List[Tuple[str, str]] = []
        else:
            params = [("uint256", f"key{i}") for i in range(var.type.depth())]
        all_functions.append(ast.Function(
            name=var.name, params=params, returns_value=True, body=[]))

    for fn in all_functions:
        compiled.functions[fn.name] = FunctionABI(
            name=fn.name,
            signature=fn.signature,
            selector=selector(fn.signature),
            param_types=tuple(t for t, _ in fn.params),
            returns_value=fn.returns_value,
        )
    return compiled


def _check(contract: ast.Contract) -> None:
    """Minimal semantic validation before codegen."""
    seen_vars = set()
    for var in contract.state_vars:
        if var.name in seen_vars:
            raise CompileError(f"duplicate state variable {var.name!r}")
        seen_vars.add(var.name)
    seen_fns = set()
    for fn in contract.functions:
        if fn.name in seen_fns:
            raise CompileError(f"duplicate function {fn.name!r}")
        if fn.name in seen_vars:
            raise CompileError(
                f"function {fn.name!r} collides with a public getter")
        seen_fns.add(fn.name)
