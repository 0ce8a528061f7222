"""The usage line and the ``--help`` text of the command line.

Both are printed from the option table that :mod:`liecheck.cli` reads argv
against, passed in as ``commands``: a command maps to (its report function;
its summary; its options), and an option maps its name to (a converter, or
a tuple of the values it accepts; its default; its help).  Only a usage
error or ``--help`` runs this module.
"""

from __future__ import annotations


def _metavar(name: str, kind) -> str:
    return "{" + ",".join(kind) + "}" if isinstance(kind, tuple) else name.upper()


def usage(commands: dict, command: str | None) -> str:
    """The ``usage:`` line of ``command``, or of the program for None."""
    if command is None:
        return f"usage: liecheck [-h] {{{','.join(commands)}}} ..."
    options = (f"[--{name} {_metavar(name, kind)}]"
               for name, (kind, _, _) in commands[command][2].items())
    return " ".join(["usage: liecheck", command, "[-h]", *options, "file"])


def help_text(commands: dict, command: str | None) -> str:
    """The ``--help`` text of ``command``, or of the program for None."""
    help_row = ("-h, --help", "show this help message and exit")
    if command is None:
        about = "Exact checks for operators on homogeneous pairs of Lie algebras"
        rows = [*((name, summary) for name, (_, summary, _) in commands.items()), help_row]
    else:
        _, about, options = commands[command]
        rows = [("file", "input .lie file"), help_row, *(
            (f"--{name} {_metavar(name, kind)}",
             text if default is None else f"{text} (default: {default})")
            for name, (kind, default, text) in options.items())]
    width = max(len(left) for left, _ in rows) + 2
    return "\n".join([usage(commands, command), "", about, "", "arguments:",
                      *(f"  {left:<{width}}{right}" for left, right in rows)]) + "\n"
