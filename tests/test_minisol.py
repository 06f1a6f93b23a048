"""minisol compiler tests: lexer, parser, codegen behaviour."""

import pytest

from repro.chain.block import BlockHeader
from repro.chain.transaction import Transaction
from repro.contracts import PRICEFEED_SOURCE, pricefeed
from repro.errors import CompileError
from repro.evm.interpreter import EVM
from repro.minisol import compile_contract, decode_uint, mapping_slot
from repro.minisol.abi import encode_call, selector
from repro.minisol.lexer import tokenize
from repro.minisol.parser import parse
from repro.state.statedb import StateDB
from repro.state.world import WorldState

SENDER = 0x51
CONTRACT = 0xC0


def deploy_and_call(source, fn, *args, timestamp=1000, sender=SENDER,
                    storage=None):
    compiled = compile_contract(source)
    world = WorldState()
    world.create_account(sender, balance=10**21)
    world.create_account(CONTRACT, code=compiled.code)
    if storage:
        account = world.get_account(CONTRACT)
        for slot, value in storage.items():
            account.set_storage(slot, value)
    state = StateDB(world)
    tx = Transaction(sender=sender, to=CONTRACT,
                     data=compiled.calldata(fn, *args), nonce=0)
    header = BlockHeader(number=1, timestamp=timestamp, coinbase=0xBEEF)
    result = EVM(state, header, tx).execute_transaction()
    return compiled, result, state


# -- lexer ----------------------------------------------------------------

def test_tokenize_basics():
    tokens = tokenize("contract C { uint256 x; }")
    kinds = [t.kind for t in tokens]
    assert kinds == ["contract", "ident", "{", "uint256", "ident", ";", "}"]


def test_tokenize_numbers():
    tokens = tokenize("123 0xff 1_000")
    assert [t.value for t in tokens] == [123, 255, 1000]


def test_tokenize_comments():
    tokens = tokenize("1 // line\n2 /* block\nblock */ 3")
    assert [t.value for t in tokens] == [1, 2, 3]


def test_tokenize_operators_maximal_munch():
    tokens = tokenize("a <= b == c => d")
    assert [t.kind for t in tokens] == ["ident", "<=", "ident", "==",
                                        "ident", "=>", "ident"]


def test_tokenize_bad_char():
    with pytest.raises(CompileError):
        tokenize("a $ b")


def test_unterminated_comment():
    with pytest.raises(CompileError):
        tokenize("/* never ends")


# -- parser ----------------------------------------------------------------

def test_parse_contract_shape():
    contract = parse("""
        contract Demo {
            uint256 public total;
            mapping(uint256 => uint256) public items;
            event Ping(uint256 a);
            function bump(uint256 n) public { total = total + n; }
        }
    """)
    assert contract.name == "Demo"
    assert [v.name for v in contract.state_vars] == ["total", "items"]
    assert contract.state_vars[0].slot == 0
    assert contract.state_vars[1].slot == 1
    assert contract.functions[0].signature == "bump(uint256)"
    assert contract.events[0].name == "Ping"


def test_parse_nested_mapping_depth():
    contract = parse("""
        contract D {
            mapping(address => mapping(address => uint256)) public m;
        }
    """)
    assert contract.state_vars[0].type.depth() == 2


def test_parse_if_else_chain():
    contract = parse("""
        contract D {
            uint256 public x;
            function f(uint256 a) public {
                if (a > 1) { x = 1; } else if (a > 0) { x = 2; }
                else { x = 3; }
            }
        }
    """)
    body = contract.functions[0].body
    assert len(body) == 1


def test_parse_rejects_bad_assignment_target():
    with pytest.raises(CompileError):
        parse("contract D { function f() public { 1 = 2; } }")


def test_parse_rejects_unknown_env_field():
    with pytest.raises(CompileError):
        parse("contract D { function f() public { uint256 t = block.nope; } }")


# -- selectors / ABI -----------------------------------------------------------

def test_selector_is_4_bytes_of_hash():
    sel = selector("transfer(address,uint256)")
    assert 0 <= sel < 2**32


def test_encode_call_layout():
    data = encode_call("f(uint256)", [5])
    assert len(data) == 4 + 32
    assert int.from_bytes(data[4:], "big") == 5


def test_mapping_slot_nesting():
    compiled = compile_contract("""
    contract N {
        uint256 public pad;
        mapping(uint256 => mapping(uint256 => uint256)) public grid;
    }
    """)
    base = compiled.slot_of("grid")
    assert compiled.slot_of("grid", 7, 9) == \
        mapping_slot(mapping_slot(base, 7), 9)


# -- codegen / execution ----------------------------------------------------------

ARITH = """
contract Math {
    function calc(uint256 a, uint256 b) public returns (uint256) {
        return (a + b) * 2 - a / (b + 1);
    }
}
"""


def test_arithmetic_codegen():
    _, result, _ = deploy_and_call(ARITH, "calc", 10, 4)
    assert result.success
    assert decode_uint(result.return_data) == (10 + 4) * 2 - 10 // 5


def test_local_variables_and_assignment():
    source = """
    contract L {
        uint256 public out;
        function f(uint256 a) public {
            uint256 x = a + 1;
            uint256 y = x * 2;
            x = y + x;
            out = x;
        }
    }
    """
    compiled, result, state = deploy_and_call(source, "f", 5)
    assert result.success
    assert state.get_storage(CONTRACT, compiled.slot_of("out")) == 18


def test_mapping_read_write():
    source = """
    contract M {
        mapping(uint256 => uint256) public table;
        function put(uint256 k, uint256 v) public { table[k] = v; }
    }
    """
    compiled, result, state = deploy_and_call(source, "put", 7, 99)
    assert result.success
    assert state.get_storage(
        CONTRACT, compiled.slot_of("table", 7)) == 99


def test_nested_mapping_access():
    source = """
    contract N {
        mapping(address => mapping(address => uint256)) public grid;
        function put(address a, address b, uint256 v) public {
            grid[a][b] = v;
        }
        function get(address a, address b) public returns (uint256) {
            return grid[a][b];
        }
    }
    """
    compiled, result, state = deploy_and_call(source, "put", 1, 2, 55)
    assert result.success
    assert state.get_storage(
        CONTRACT, compiled.slot_of("grid", 1, 2)) == 55


def test_require_reverts():
    source = """
    contract R {
        uint256 public x;
        function f(uint256 a) public { require(a > 10); x = a; }
    }
    """
    compiled, result, state = deploy_and_call(source, "f", 5)
    assert not result.success
    assert state.get_storage(CONTRACT, compiled.slot_of("x")) == 0
    _, result2, state2 = deploy_and_call(source, "f", 11)
    assert result2.success


def test_if_else_branches():
    source = """
    contract B {
        uint256 public out;
        function f(uint256 a) public {
            if (a >= 10) { out = 1; } else { out = 2; }
        }
    }
    """
    compiled, _, state = deploy_and_call(source, "f", 10)
    assert state.get_storage(CONTRACT, compiled.slot_of("out")) == 1
    compiled, _, state = deploy_and_call(source, "f", 9)
    assert state.get_storage(CONTRACT, compiled.slot_of("out")) == 2


def test_while_loop():
    source = """
    contract W {
        uint256 public total;
        function sum(uint256 n) public {
            uint256 i = 1;
            uint256 acc = 0;
            while (i <= n) { acc = acc + i; i = i + 1; }
            total = acc;
        }
    }
    """
    compiled, result, state = deploy_and_call(source, "sum", 10)
    assert result.success
    assert state.get_storage(CONTRACT, compiled.slot_of("total")) == 55


def test_short_circuit_and_or():
    source = """
    contract S {
        mapping(uint256 => uint256) public d;
        function f(uint256 a, uint256 b) public returns (uint256) {
            if (a > 1 && b > 1) { return 3; }
            if (a > 1 || b > 1) { return 2; }
            return 1;
        }
    }
    """
    for (a, b), expected in {(2, 2): 3, (2, 0): 2, (0, 2): 2, (0, 0): 1}.items():
        _, result, _ = deploy_and_call(source, "f", a, b)
        assert decode_uint(result.return_data) == expected


def test_unary_not_and_neg():
    source = """
    contract U {
        function f(uint256 a) public returns (uint256) {
            if (!(a > 5)) { return 0 - 1; }
            return a;
        }
    }
    """
    _, result, _ = deploy_and_call(source, "f", 3)
    assert decode_uint(result.return_data) == 2**256 - 1


def test_env_reads():
    source = """
    contract E {
        function who() public returns (address) { return msg.sender; }
        function when() public view returns (uint256) {
            return block.timestamp;
        }
    }
    """
    _, result, _ = deploy_and_call(source, "who")
    assert decode_uint(result.return_data) == SENDER
    _, result, _ = deploy_and_call(source, "when", timestamp=777)
    assert decode_uint(result.return_data) == 777


def test_public_getter_generated():
    source = """
    contract G {
        uint256 public answer;
        mapping(uint256 => uint256) public table;
    }
    """
    compiled, result, state = deploy_and_call(
        source, "answer",
        storage={compile_contract(source).slot_of("answer"): 42})
    assert result.success
    assert decode_uint(result.return_data) == 42


def test_events_emit_topic_and_data():
    source = """
    contract Ev {
        event Fired(uint256 a, uint256 b);
        function f() public { emit Fired(7, 8); }
    }
    """
    _, result, _ = deploy_and_call(source, "f")
    assert result.success
    assert len(result.logs) == 1
    _, topics, data = result.logs[0]
    from repro.minisol.abi import event_topic
    assert topics == (event_topic("Fired(uint256,uint256)"),)
    assert int.from_bytes(data[:32], "big") == 7
    assert int.from_bytes(data[32:64], "big") == 8


def test_unknown_selector_reverts():
    compiled = compile_contract(ARITH)
    world = WorldState()
    world.create_account(SENDER, balance=10**21)
    world.create_account(CONTRACT, code=compiled.code)
    state = StateDB(world)
    tx = Transaction(sender=SENDER, to=CONTRACT, data=b"\xde\xad\xbe\xef",
                     nonce=0)
    result = EVM(state, BlockHeader(1, 1, 0xB), tx).execute_transaction()
    assert not result.success


def test_compile_is_deterministic():
    """A fresh compile reproduces the library's cached bytecode, which
    recorded datasets and golden gas numbers were produced from."""
    assert compile_contract(PRICEFEED_SOURCE).code == pricefeed().code


def test_duplicate_state_var_rejected():
    with pytest.raises(CompileError):
        compile_contract("contract D { uint256 public a; uint256 a; }")


def test_duplicate_function_rejected():
    with pytest.raises(CompileError):
        compile_contract(
            "contract D { function f() public {} function f() public {} }")


def test_getter_collision_rejected():
    with pytest.raises(CompileError):
        compile_contract(
            "contract D { uint256 public f; function f() public {} }")


def test_calldata_arity_checked():
    compiled = compile_contract(ARITH)
    with pytest.raises(CompileError):
        compiled.calldata("calc", 1)


def test_unknown_function_in_calldata():
    compiled = compile_contract(ARITH)
    with pytest.raises(CompileError):
        compiled.calldata("nope")
