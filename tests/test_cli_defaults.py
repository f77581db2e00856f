"""An omitted CLI flag takes the library's default.

`cli._given` passes a flag on only when it was given, so the callee's
default applies; that holds only while the subcommand's parser gives
such a flag no default of its own.
"""

import ast
import inspect

from evmguard import cli


def forwarded(fn) -> set[str]:
    """The flag names `fn`, or a `cli` function it calls, hands to `_given`."""
    names = set()
    for node in ast.walk(ast.parse(inspect.getsource(fn))):
        callee = getattr(node.func, "id", None) if isinstance(node, ast.Call) else None
        if callee == "_given":
            names |= {arg.value for arg in node.args[1:]}
        elif inspect.isfunction(getattr(cli, str(callee), None)) and callee != fn.__name__:
            names |= forwarded(getattr(cli, callee))
    return names


def test_a_flag_passed_on_only_when_given_has_no_parser_default():
    subparsers = next(a for a in cli.build_parser()._actions if a.dest == "command").choices
    checked = 0
    for command, sub in subparsers.items():
        defaults = {action.dest: action.default for action in sub._actions}
        names = forwarded(cli._COMMANDS[command])
        assert names <= set(defaults), command
        assert {name: defaults[name] for name in names if defaults[name] is not None} == {}, command
        checked += len(names)
    assert checked
