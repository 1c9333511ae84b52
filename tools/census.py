#!/usr/bin/env python3
"""Compile-driven visibility census over the seven library crates (PR 22),
and the non-test line count.

Run from the repository root, python3 only:

  tools/census.py lines    print the non-test lines of each crate's `src/`
                           (and the facade's `src/`) and their total: every
                           line of a file up to its unit-test module, a
                           `#[cfg(test)]` line followed by a `mod` line, the
                           boundary tests/public_surface.rs draws

The visibility census runs on a clean tree:

  tools/census.py split    one `pub use` statement per re-exported name
  tools/census.py demote   pub -> pub(crate) on every item, field and `pub use`
                           in the non-test regions (`pub mod` is left alone)
  tools/census.py fix      cargo check the workspace (--all-targets) and perf/,
                           re-promote exactly what the privacy errors name,
                           repeat until a round promotes nothing (~60 rounds)

Then, by hand: `cargo test --doc --workspace` and promote what it names; an
error the script prints as OTHER (an inherent method demoted below a
same-named trait method makes outside callers fall through to the trait —
`OpfArbiter::arbitrate`); `cargo check --workspace` and delete what
dead_code / unused_imports report; regroup the `pub use` lines; clippy,
rustdoc -D warnings, fmt. `tests/public_surface.rs` holds the resulting
per-crate counts. A fixed point demotes nothing further.
"""
import re, sys, glob, json, subprocess, os
ROOT=os.getcwd()
CRATES=["core","router","network","sim","workload","standalone","bench"]
ITEM=re.compile(r'^(\s*)pub(\s+(?:const\s+fn|unsafe\s+fn|fn|struct|enum|trait|const|static|type|union|use)\b)')
FIELD=re.compile(r'^(\s*)pub(\s+[a-z_][A-Za-z0-9_]*\s*:)')
def files():
    for c in CRATES:
        for p in sorted(glob.glob(f'{ROOT}/crates/{c}/src/**/*.rs', recursive=True)):
            if '/bin/' in p: continue
            yield p
def split_region(text):
    i=text.find('\n#[cfg(test)]')
    return (text, '') if i<0 else (text[:i+1], text[i+1:])

def split_uses():
    for p in files():
        t=open(p).read(); head,tail=split_region(t)
        def repl(m):
            indent,path,body=m.group(1),m.group(2),m.group(3)
            names=[n.strip() for n in body.replace('\n',' ').split(',') if n.strip()]
            out=[]
            for n in names:
                if n=='self' or n.startswith('self '):
                    out.append(f'{indent}pub use {path[:-2]};')
                else:
                    out.append(f'{indent}pub use {path}{n};')
            return '\n'.join(out)
        head2=re.sub(r'^([ \t]*)pub use ([\w:]+::)\{([^}]*)\};', repl, head, flags=re.M)
        if head2!=head: open(p,'w').write(head2+tail)

def demote():
    n=0
    for p in files():
        t=open(p).read(); head,tail=split_region(t)
        out=[]
        for l in head.split('\n'):
            m=ITEM.match(l) or FIELD.match(l)
            if m:
                l=m.group(1)+'pub(crate)'+l[m.end(1)+3:]; n+=1
            # tuple-struct fields
            if re.match(r'^\s*pub(\(crate\))?\s+struct\s+\w+\s*\(', l):
                l2=re.sub(r'\(pub ', '(pub(crate) ', l); l2=re.sub(r', pub ', ', pub(crate) ', l2)
                if l2!=l: n+=1; l=l2
            out.append(l)
        open(p,'w').write('\n'.join(out)+tail)
    print('demoted',n)

def promote_line(path, line):
    """line is 1-based. Promote pub(crate)->pub on that line (or up to 3 lines above for attrs)."""
    if not path.startswith('/'): path=os.path.join(ROOT,path)
    path=os.path.normpath(path)
    if '/crates/' not in path or '/src/' not in path: return False
    ls=open(path).read().split('\n')
    for k in range(line-1, max(line-4,-1), -1):
        if 'pub(crate)' in ls[k]:
            ls[k]=ls[k].replace('pub(crate)','pub',1)
            open(path,'w').write('\n'.join(ls))
            return True
        if k==line-1 and re.search(r'\bpub\b', ls[k]): return None  # already pub
    return False

def promote_named(kind, name, owner=None):
    """Find definition by name across crates. kind: 'field'|'item'."""
    hits=0
    for p in files():
        t=open(p).read(); head,tail=split_region(t)
        ls=head.split('\n'); cur=None; changed=False
        for i,l in enumerate(ls):
            m=re.match(r'^\s*(?:pub(?:\(crate\))?\s+)?(?:struct|enum|union)\s+(\w+)', l)
            if m: cur=m.group(1)
            if kind=='field':
                if owner and cur!=owner: continue
                if re.match(rf'^\s*pub\(crate\)\s+{re.escape(name)}\s*:', l):
                    ls[i]=l.replace('pub(crate)','pub',1); changed=True; hits+=1
            elif kind=='tuple':
                if re.match(rf'^\s*pub(\(crate\))?\s+struct\s+{re.escape(name)}\s*\(', l) and 'pub(crate) ' in l[l.index('('):]:
                    pre,post=l[:l.index('(')],l[l.index('('):]
                    ls[i]=pre+post.replace('pub(crate) ','pub '); changed=True; hits+=1
            else:
                if re.match(rf'^\s*pub\(crate\)\s+(?:const\s+fn|unsafe\s+fn|fn|struct|enum|trait|const|static|type|union)\s+{re.escape(name)}\b', l):
                    ls[i]=l.replace('pub(crate)','pub',1); changed=True; hits+=1
        if changed: open(p,'w').write('\n'.join(ls)+tail)
    return hits

def run(cmd):
    r=subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    msgs=[]
    for line in r.stdout.split('\n'):
        if not line.startswith('{'): continue
        try: j=json.loads(line)
        except: continue
        if j.get('reason')=='compiler-message': msgs.append(j['message'])
    return msgs, r

def handle(msg, log):
    code=(msg.get('code') or {}).get('code')
    text=msg['message']; lvl=msg['level']
    if lvl not in ('error','warning'): return 0
    n=0; handled=False
    def all_spans(m):
        for s in m.get('spans',[]): yield s, m
        for c in m.get('children',[]): yield from all_spans(c)
    if code in ('E0603',):
        # children: note "the X `n` is defined here" / "...imported here"
        for s,m in all_spans(msg):
            if m is msg: continue
            r=promote_line(s['file_name'], s['line_start'])
            if r: n+=1
            if r is None: handled=True
        if n==0 and not handled: log.append(('UNHANDLED',code,text,[ (s['file_name'],s['line_start'],m['message']) for s,m in all_spans(msg)]))
    elif code in ('E0624',):
        for s,m in all_spans(msg):
            if s.get('label') and 'defined here' in s['label']:
                if promote_line(s['file_name'], s['line_start']): n+=1
        if n==0: log.append(('UNHANDLED',code,text,[(s['file_name'],s['line_start'],s.get('label')) for s,m in all_spans(msg)]))
    elif code in ('E0616','E0451'):
        m=re.search(r'field `(\w+)` of (?:struct|union) `(?:\w+::)*(\w+)`', text)
        if m: n+=promote_named('field', m.group(1), m.group(2))
        mm=re.search(r'fields (.*) of (?:struct|union) `(?:\w+::)*(\w+)` are private', text)
        if mm:
            for f in re.findall(r'`(\w+)`', mm.group(1)): n+=promote_named('field', f, mm.group(2))
            if 'other' in mm.group(1) and n==0: log.append(('MOREFIELDS',code,text,[]))
        if n==0: log.append(('UNHANDLED',code,text,[]))
    elif code in ('E0423','E0532') and 'private fields' in json.dumps(msg):
        m=re.search(r'`(\w+)`', text)
        if m: n+=promote_named('tuple', m.group(1).split('::')[-1])
        if n==0: log.append(('UNHANDLED',code,text,[]))
    elif code in ('E0364','E0365'):
        m=re.search(r'`(\w+)` is', text)
        if m:
            n+=promote_named('item', m.group(1))
            for p in files():
                t=open(p).read()
                t2=re.sub(rf'^(\s*)pub\(crate\) use ([\w:]+::)?{m.group(1)};', lambda mm: mm.group(0).replace('pub(crate)','pub',1), t, flags=re.M)
                if t2!=t: open(p,'w').write(t2); n+=1
        if n==0: log.append(('UNHANDLED',code,text,[]))
    elif code in ('private_interfaces','private_bounds','E0446','E0445'):
        for s,m in all_spans(msg):
            if s.get('is_primary') and m is msg: continue
            r=promote_line(s['file_name'], s['line_start'])
            if r: n+=1
        if n==0: log.append(('UNHANDLED',code,text,[(s['file_name'],s['line_start'],s.get('label')) for s,m in all_spans(msg)]))
    elif code in ('E0425','E0433','E0412','E0432','E0423','E0531','E0532','E0405','E0404') and re.search(r'cannot find .*`(\w+)` in this scope', text):
        name=re.search(r'cannot find .*`(\w+)` in this scope', text).group(1)
        for p in files():
            if not p.endswith('lib.rs'): continue
            t=open(p).read()
            t2=re.sub(rf'^(\s*)pub\(crate\) use ([\w:]+::)?{name};', lambda m: m.group(0).replace('pub(crate)','pub',1), t, flags=re.M)
            if t2!=t: open(p,'w').write(t2); n+=1
        if n==0: log.append(('UNHANDLED',code,text,[(s['file_name'],s['line_start']) for s in msg.get('spans',[])[:1]]))
    elif lvl=='error':
        sp=msg.get('spans',[])
        log.append(('OTHER',code,text,[(s['file_name'],s['line_start']) for s in sp[:2]]))
    return n

def round_():
    total=0; log=[]
    for cmd in (['cargo','check','--workspace','--all-targets','--message-format=json','-q'],
                ['cargo','check','--manifest-path','perf/Cargo.toml','--all-targets','--message-format=json','-q','--offline']):
        msgs,r=run(cmd)
        seen=set()
        for m in msgs:
            key=json.dumps(m,sort_keys=True)
            if key in seen: continue
            seen.add(key)
            total+=handle(m,log)
        if total: break   # rebuild before moving to perf
    # A round that promotes something re-reports what it has just fixed
    # (one error per use site); only a stuck round's log is worth reading.
    if total==0:
        for e in log[:40]: print(e)
    print('promoted',total,flush=True)
    return total

def non_test_lines(path):
    ls=[l.strip() for l in open(path).read().splitlines()]
    for i in range(len(ls)-1):
        if ls[i]=='#[cfg(test)]' and ls[i+1].startswith('mod '): return i
    return len(ls)

def lines():
    dirs=sorted(glob.glob(f'{ROOT}/crates/*/src'))+[f'{ROOT}/src']
    total=0
    for d in dirs:
        n=sum(non_test_lines(p) for p in glob.glob(f'{d}/**/*.rs', recursive=True))
        total+=n
        print(f'{os.path.relpath(d, ROOT):<22}{n:>7}')
    print(f'{"total":<22}{total:>7}')

if __name__=='__main__':
    a=sys.argv[1]
    if a=='lines': lines()
    elif a=='split': split_uses()
    elif a=='demote': demote()
    elif a=='fix':
        while round_(): pass
