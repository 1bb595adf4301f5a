#!/usr/bin/env python3
"""Run every svsim/svexplore command that the given documents show.

  doc_commands.py --bin-dir DIR --source-dir DIR [--budget S] DOC...

Commands come from fenced code blocks (./build/tools/svsim ... lines, with
VAR=value prefixes and backslash continuations) and from inline code spans
that are complete commands (`svsim msg nodes=4`; spans with placeholders
such as FILE or ... are skipped). Each document's commands run in order in
one scratch directory holding a copy of tests/ckpt, so a --checkpoint-out
followed by a --restore works as written. A command must exit 0, or with
the code its comment names ("(exit code 2)"), within the budget.
SV_NO_FASTPATH is cleared unless the command sets it.
"""

import argparse, os, re, shlex, shutil, subprocess, sys, tempfile, time

ARG = re.compile(r"^(--)?[\w.-]+=[^\s=]*$|^[a-z.]+$")


def parse(line):
    """(env, program, args) when `line` runs svsim or svexplore."""
    try:
        words = shlex.split(line)
    except ValueError:
        return None
    env = {}
    while words and re.match(r"^[A-Z_]+=\S*$", words[0]):
        k, _, v = words.pop(0).partition("=")
        env[k] = v
    if not words or not re.match(r"^(\./build/tools/)?sv(sim|explore)$",
                                 words[0]):
        return None
    return env, os.path.basename(words[0]), words[1:]


def commands(text):
    """[(line, parsed, expected exit code)] in document order."""
    out = []
    lines = text.splitlines()
    fenced = False
    i = 0
    while i < len(lines):
        line = lines[i].strip()
        i += 1
        if line.startswith("```"):
            fenced = not fenced
        if not fenced:
            continue
        while line.endswith("\\") and i < len(lines):
            line = line[:-1] + " " + lines[i].strip()
            i += 1
        line = line.split(" #")[0].strip()
        cmd = parse(line)
        if cmd:
            expect = 0
            while i < len(lines) and lines[i].strip().startswith("#"):
                m = re.search(r"exit code (\d+)", lines[i])
                expect = int(m.group(1)) if m else expect
                i += 1
            out.append((line, cmd, expect))
    prose = re.sub(r"```.*?```", "", text, flags=re.S)
    for span in re.findall(r"`([^`]+)`", prose):
        line = " ".join(span.split())
        cmd = parse(line)
        if (cmd and cmd[2] and all(ARG.match(a) for a in cmd[2]) and
                not re.search(r"FILE|PREFIX|TICK|\.\.\.", line)):
            out.append((line, cmd, 0))
    return out


def run_doc(path, opts):
    failures = 0
    with open(path, encoding="utf-8") as f:
        todo = commands(f.read())
    with tempfile.TemporaryDirectory(prefix="doc_commands_") as work:
        shutil.copytree(os.path.join(opts.source_dir, "tests", "ckpt"),
                        os.path.join(work, "tests", "ckpt"))
        for line, (env, prog, args), expect in todo:
            run_env = {k: v for k, v in os.environ.items()
                       if k != "SV_NO_FASTPATH"}
            run_env.update(env)
            t0 = time.monotonic()
            try:
                p = subprocess.run([os.path.join(opts.bin_dir, prog)] + args,
                                   cwd=work, env=run_env,
                                   stdout=subprocess.PIPE,
                                   stderr=subprocess.STDOUT,
                                   timeout=opts.budget)
                rc, output = p.returncode, p.stdout
            except subprocess.TimeoutExpired as e:
                rc, output = "timeout", e.stdout or b""
            verdict = ("ok" if rc == expect else
                       f"FAIL (exit {rc}, want {expect})")
            print(f"{os.path.basename(path)}: {line}  "
                  f"[{time.monotonic() - t0:.1f} s] {verdict}")
            if rc != expect:
                failures += 1
                for t in output.decode(errors="replace").splitlines()[-5:]:
                    print(f"    | {t}")
    return len(todo), failures


if __name__ == "__main__":
    ap = argparse.ArgumentParser()
    ap.add_argument("--bin-dir", required=True)
    ap.add_argument("--source-dir", required=True)
    ap.add_argument("--budget", type=float, default=300.0)  # s per command
    ap.add_argument("docs", nargs="+")
    opts = ap.parse_args()
    results = [run_doc(doc, opts) for doc in opts.docs]
    failures = sum(bad + (n == 0) for n, bad in results)
    print(f"{sum(n for n, _ in results)} documented commands, "
          f"{failures} failed")
    sys.exit(1 if failures else 0)
