//! Bookshelf parsing: `.aux` dispatch plus one parser per member file.

use super::lex::{get_tok, keyed_value, parse_tok, tokenize, Cursor};
use super::BookshelfError;
use crate::{Design, DesignBuilder, LayerBlockage, NodeKind, Placement, RouteSpec};
use rdp_geom::{Orient, Point, Rect};
use std::collections::HashMap;
use std::fs;
use std::path::{Path, PathBuf};

fn read_file(path: &Path) -> Result<String, BookshelfError> {
    fs::read_to_string(path).map_err(|source| BookshelfError::Io {
        path: path.to_path_buf(),
        source,
    })
}

/// Reads a benchmark from its `.aux` file, returning the design and the
/// placement encoded in its `.pl`.
///
/// # Errors
///
/// Fails on I/O problems, malformed syntax (with file/line context) and on
/// designs violating the structural invariants of
/// [`DesignBuilder`](crate::DesignBuilder).
pub fn read_design(aux_path: impl AsRef<Path>) -> Result<(Design, Placement), BookshelfError> {
    let aux_path = aux_path.as_ref();
    let dir = aux_path.parent().unwrap_or_else(|| Path::new("."));
    let name = aux_path
        .file_stem()
        .map(|s| s.to_string_lossy().into_owned())
        .unwrap_or_else(|| "design".to_owned());

    let aux = read_file(aux_path)?;
    let mut files: HashMap<String, PathBuf> = HashMap::new();
    for line in tokenize(&aux) {
        for tok in &line.tokens {
            if let Some(ext) = Path::new(tok).extension() {
                files.insert(ext.to_string_lossy().into_owned(), dir.join(tok));
            }
        }
    }
    let need = |ext: &str| -> Result<&PathBuf, BookshelfError> {
        files.get(ext).ok_or_else(|| BookshelfError::Parse {
            path: aux_path.to_path_buf(),
            line: 1,
            message: format!("aux file references no .{ext} file"),
        })
    };

    let mut builder = DesignBuilder::new(name);

    parse_nodes(need("nodes")?, &mut builder)?;
    parse_scl(need("scl")?, &mut builder)?;
    let weights = match files.get("wts") {
        Some(p) if p.exists() => parse_wts(p)?,
        _ => HashMap::new(),
    };
    parse_nets(need("nets")?, &mut builder, &weights)?;
    if let Some(p) = files.get("regions") {
        if p.exists() {
            parse_regions(p, &mut builder)?;
        }
    }
    if let Some(p) = files.get("route") {
        if p.exists() {
            parse_route(p, &mut builder)?;
        }
    }
    if let Some(p) = files.get("shapes") {
        if p.exists() {
            parse_shapes(p, &mut builder)?;
        }
    }

    let design = builder.finish()?;
    let placement = read_placement(&design, need("pl")?)?;
    Ok((design, placement))
}

fn parse_nodes(path: &Path, builder: &mut DesignBuilder) -> Result<(), BookshelfError> {
    let text = read_file(path)?;
    let lines = tokenize(&text);
    let cur = Cursor::new(path, &lines);
    for line in &lines {
        match line.tokens[0].as_str() {
            "NumNodes" | "NumTerminals" => continue,
            _ => {}
        }
        let name = &line.tokens[0];
        let w: f64 = parse_tok(&cur, line, get_tok(&cur, line, 1, "node width")?, "number")?;
        let h: f64 = parse_tok(&cur, line, get_tok(&cur, line, 2, "node height")?, "number")?;
        let kind = match line.tokens.get(3).map(String::as_str) {
            Some("terminal") => NodeKind::Fixed,
            Some("terminal_NI") => NodeKind::FixedNi,
            Some(other) => {
                return Err(cur.error(line.number, format!("unknown node flag `{other}`")))
            }
            None => NodeKind::Movable,
        };
        builder
            .add_node(name.clone(), w, h, kind)
            .map_err(BookshelfError::Build)?;
    }
    Ok(())
}

fn parse_scl(path: &Path, builder: &mut DesignBuilder) -> Result<(), BookshelfError> {
    let text = read_file(path)?;
    let lines = tokenize(&text);
    let cur = Cursor::new(path, &lines);
    let mut i = 0;
    while i < lines.len() {
        let line = &lines[i];
        if line.tokens[0] != "CoreRow" {
            i += 1;
            continue;
        }
        let mut y = None;
        let mut height = None;
        let mut site = None;
        let mut origin = None;
        let mut num_sites = None;
        i += 1;
        while i < lines.len() && lines[i].tokens[0] != "End" {
            let l = &lines[i];
            match l.tokens[0].as_str() {
                "Coordinate" => y = Some(parse_tok(&cur, l, get_tok(&cur, l, 1, "row y")?, "number")?),
                "Height" => height = Some(parse_tok(&cur, l, get_tok(&cur, l, 1, "row height")?, "number")?),
                "Sitespacing" => site = Some(parse_tok(&cur, l, get_tok(&cur, l, 1, "site spacing")?, "number")?),
                "Sitewidth" if site.is_none() => {
                    site = Some(parse_tok(&cur, l, get_tok(&cur, l, 1, "site width")?, "number")?);
                }
                "SubrowOrigin" => {
                    origin = Some(parse_tok(&cur, l, get_tok(&cur, l, 1, "subrow origin")?, "number")?);
                    if let Some(v) = keyed_value(l, "NumSites") {
                        num_sites = Some(parse_tok(&cur, l, v, "site count")?);
                    }
                }
                "NumSites" => num_sites = Some(parse_tok(&cur, l, get_tok(&cur, l, 1, "site count")?, "number")?),
                _ => {}
            }
            i += 1;
        }
        let row_line = line.number;
        let missing = |what: &str| cur.error(row_line, format!("CoreRow missing {what}"));
        builder.add_row(
            y.ok_or_else(|| missing("Coordinate"))?,
            height.ok_or_else(|| missing("Height"))?,
            site.ok_or_else(|| missing("Sitewidth/Sitespacing"))?,
            origin.ok_or_else(|| missing("SubrowOrigin"))?,
            num_sites.ok_or_else(|| missing("NumSites"))?,
        );
        i += 1; // past End
    }
    Ok(())
}

fn parse_wts(path: &Path) -> Result<HashMap<String, f64>, BookshelfError> {
    let text = read_file(path)?;
    let lines = tokenize(&text);
    let cur = Cursor::new(path, &lines);
    let mut out = HashMap::new();
    for line in &lines {
        if line.tokens.len() < 2 {
            continue;
        }
        let w: f64 = parse_tok(&cur, line, &line.tokens[1], "net weight")?;
        out.insert(line.tokens[0].clone(), w);
    }
    Ok(out)
}

fn parse_nets(
    path: &Path,
    builder: &mut DesignBuilder,
    weights: &HashMap<String, f64>,
) -> Result<(), BookshelfError> {
    let text = read_file(path)?;
    let lines = tokenize(&text);
    let cur = Cursor::new(path, &lines);
    let mut i = 0;
    let mut auto = 0usize;
    while i < lines.len() {
        let line = &lines[i];
        if line.tokens[0] != "NetDegree" {
            i += 1;
            continue;
        }
        let degree: usize = parse_tok(&cur, line, get_tok(&cur, line, 1, "net degree")?, "number")?;
        let net_name = line
            .tokens
            .get(2)
            .cloned()
            .unwrap_or_else(|| format!("net{auto}"));
        auto += 1;
        let weight = weights.get(&net_name).copied().unwrap_or(1.0);
        let net = builder.add_net(net_name, weight);
        for k in 0..degree {
            i += 1;
            let l = lines.get(i).ok_or_else(|| {
                cur.error(line.number, format!("net truncated: expected {degree} pins, got {k}"))
            })?;
            let node_name = &l.tokens[0];
            let node = builder.node_index_by_name(node_name).ok_or_else(|| {
                cur.error(l.number, format!("pin references unknown node `{node_name}`"))
            })?;
            // tokens: name [dir] [dx dy]
            let mut idx = 1;
            if matches!(l.tokens.get(idx).map(String::as_str), Some("I" | "O" | "B")) {
                idx += 1;
            }
            let dx: f64 = match l.tokens.get(idx) {
                Some(t) => parse_tok(&cur, l, t, "pin x offset")?,
                None => 0.0,
            };
            let dy: f64 = match l.tokens.get(idx + 1) {
                Some(t) => parse_tok(&cur, l, t, "pin y offset")?,
                None => 0.0,
            };
            builder.add_pin(net, node, Point::new(dx, dy));
        }
        i += 1;
    }
    // Degenerate (sub-2-pin) nets carry no wirelength information; dropping
    // them lets benchmarks with dangling nets still load, where the builder
    // would otherwise reject the design.
    builder.drop_degenerate_nets();
    Ok(())
}

fn parse_regions(path: &Path, builder: &mut DesignBuilder) -> Result<(), BookshelfError> {
    let text = read_file(path)?;
    let lines = tokenize(&text);
    let cur = Cursor::new(path, &lines);
    let mut i = 0;
    while i < lines.len() {
        let line = &lines[i];
        if line.tokens[0] != "Region" {
            i += 1;
            continue;
        }
        let name = get_tok(&cur, line, 1, "region name")?.to_owned();
        let mut rects = Vec::new();
        let mut members = Vec::new();
        i += 1;
        while i < lines.len() && lines[i].tokens[0] != "End" {
            let l = &lines[i];
            match l.tokens[0].as_str() {
                "Rect" => {
                    let xl: f64 = parse_tok(&cur, l, get_tok(&cur, l, 1, "rect xl")?, "number")?;
                    let yl: f64 = parse_tok(&cur, l, get_tok(&cur, l, 2, "rect yl")?, "number")?;
                    let xh: f64 = parse_tok(&cur, l, get_tok(&cur, l, 3, "rect xh")?, "number")?;
                    let yh: f64 = parse_tok(&cur, l, get_tok(&cur, l, 4, "rect yh")?, "number")?;
                    rects.push(Rect::new(xl, yl, xh, yh));
                }
                "Member" => members.push((l.number, get_tok(&cur, l, 1, "member name")?.to_owned())),
                other => return Err(cur.error(l.number, format!("unknown region record `{other}`"))),
            }
            i += 1;
        }
        let region = builder.add_region(name, rects);
        for (line_no, m) in members {
            let node = builder
                .node_index_by_name(&m)
                .ok_or_else(|| cur.error(line_no, format!("region member `{m}` is not a node")))?;
            builder.assign_region(node, region);
        }
        i += 1; // past End
    }
    Ok(())
}

fn parse_route(path: &Path, builder: &mut DesignBuilder) -> Result<(), BookshelfError> {
    let text = read_file(path)?;
    let lines = tokenize(&text);
    let cur = Cursor::new(path, &lines);

    let mut grid = None;
    let mut vcap = Vec::new();
    let mut hcap = Vec::new();
    let mut mww = Vec::new();
    let mut mws = Vec::new();
    let mut vs = Vec::new();
    let mut origin = Point::ORIGIN;
    let mut tile = (1.0, 1.0);
    let mut porosity = 0.0;
    let mut ni_terminals = Vec::new();
    let mut blockages = Vec::new();

    let vecf = |cur: &Cursor<'_>, l: &super::lex::Line| -> Result<Vec<f64>, BookshelfError> {
        l.tokens[1..]
            .iter()
            .map(|t| parse_tok::<f64>(cur, l, t, "capacity"))
            .collect()
    };

    let mut i = 0;
    while i < lines.len() {
        let l = &lines[i];
        match l.tokens[0].as_str() {
            "Grid" => {
                let gx: u32 = parse_tok(&cur, l, get_tok(&cur, l, 1, "grid x")?, "number")?;
                let gy: u32 = parse_tok(&cur, l, get_tok(&cur, l, 2, "grid y")?, "number")?;
                let nl: u32 = parse_tok(&cur, l, get_tok(&cur, l, 3, "layer count")?, "number")?;
                grid = Some((gx, gy, nl));
            }
            "VerticalCapacity" => vcap = vecf(&cur, l)?,
            "HorizontalCapacity" => hcap = vecf(&cur, l)?,
            "MinWireWidth" => mww = vecf(&cur, l)?,
            "MinWireSpacing" => mws = vecf(&cur, l)?,
            "ViaSpacing" => vs = vecf(&cur, l)?,
            "GridOrigin" => {
                let x: f64 = parse_tok(&cur, l, get_tok(&cur, l, 1, "origin x")?, "number")?;
                let y: f64 = parse_tok(&cur, l, get_tok(&cur, l, 2, "origin y")?, "number")?;
                origin = Point::new(x, y);
            }
            "TileSize" => {
                let w: f64 = parse_tok(&cur, l, get_tok(&cur, l, 1, "tile width")?, "number")?;
                let h: f64 = parse_tok(&cur, l, get_tok(&cur, l, 2, "tile height")?, "number")?;
                tile = (w, h);
            }
            "BlockagePorosity" => {
                porosity = parse_tok(&cur, l, get_tok(&cur, l, 1, "porosity")?, "number")?;
            }
            "NumNiTerminals" => {
                let n: usize = parse_tok(&cur, l, get_tok(&cur, l, 1, "terminal count")?, "number")?;
                for _ in 0..n {
                    i += 1;
                    let t = lines
                        .get(i)
                        .ok_or_else(|| cur.error(l.number, "truncated NumNiTerminals section"))?;
                    let node = builder.node_index_by_name(&t.tokens[0]).ok_or_else(|| {
                        cur.error(t.number, format!("NI terminal `{}` is not a node", t.tokens[0]))
                    })?;
                    let layer: u32 = parse_tok(&cur, t, get_tok(&cur, t, 1, "terminal layer")?, "number")?;
                    ni_terminals.push((node, layer));
                }
            }
            "NumBlockageNodes" => {
                let n: usize = parse_tok(&cur, l, get_tok(&cur, l, 1, "blockage count")?, "number")?;
                for _ in 0..n {
                    i += 1;
                    let t = lines
                        .get(i)
                        .ok_or_else(|| cur.error(l.number, "truncated NumBlockageNodes section"))?;
                    let node = builder.node_index_by_name(&t.tokens[0]).ok_or_else(|| {
                        cur.error(t.number, format!("blockage `{}` is not a node", t.tokens[0]))
                    })?;
                    let count: usize =
                        parse_tok(&cur, t, get_tok(&cur, t, 1, "blockage layer count")?, "number")?;
                    // The count is the file's claim; the line's tokens bound it.
                    let mut layers = Vec::with_capacity(count.min(t.tokens.len()));
                    for k in 0..count {
                        let tok = get_tok(&cur, t, 2 + k, "blockage layer")?;
                        layers.push(parse_tok(&cur, t, tok, "layer")?);
                    }
                    blockages.push(LayerBlockage { node, layers });
                }
            }
            _ => {}
        }
        i += 1;
    }

    let (grid_x, grid_y, num_layers) = grid.ok_or_else(|| BookshelfError::Parse {
        path: path.to_path_buf(),
        line: 1,
        message: "route file missing Grid record".to_owned(),
    })?;
    builder.route_spec(RouteSpec {
        grid_x,
        grid_y,
        num_layers,
        vertical_capacity: vcap,
        horizontal_capacity: hcap,
        min_wire_width: mww,
        min_wire_spacing: mws,
        via_spacing: vs,
        origin,
        tile_width: tile.0,
        tile_height: tile.1,
        blockage_porosity: porosity,
        ni_terminals,
        blockages,
    });
    Ok(())
}

fn parse_shapes(path: &Path, builder: &mut DesignBuilder) -> Result<(), BookshelfError> {
    let text = read_file(path)?;
    let lines = tokenize(&text);
    let cur = Cursor::new(path, &lines);
    let mut i = 0;
    while i < lines.len() {
        let l = &lines[i];
        if l.tokens[0] == "NumNonRectangularNodes" {
            i += 1;
            continue;
        }
        // `<node> : <count>` record.
        let name = &l.tokens[0];
        let node = builder
            .node_index_by_name(name)
            .ok_or_else(|| cur.error(l.number, format!("shapes for unknown node `{name}`")))?;
        let count: usize = parse_tok(&cur, l, get_tok(&cur, l, 1, "shape count")?, "number")?;
        // The count is the file's claim; the lines left bound it.
        let mut parts = Vec::with_capacity(count.min(lines.len() - i));
        for k in 0..count {
            i += 1;
            let s = lines
                .get(i)
                .ok_or_else(|| cur.error(l.number, format!("truncated shapes: expected {count} parts, got {k}")))?;
            // `Shape_k xl yl w h`
            let xl: f64 = parse_tok(&cur, s, get_tok(&cur, s, 1, "shape xl")?, "number")?;
            let yl: f64 = parse_tok(&cur, s, get_tok(&cur, s, 2, "shape yl")?, "number")?;
            let w: f64 = parse_tok(&cur, s, get_tok(&cur, s, 3, "shape width")?, "number")?;
            let h: f64 = parse_tok(&cur, s, get_tok(&cur, s, 4, "shape height")?, "number")?;
            parts.push(Rect::new(xl, yl, xl + w, yl + h));
        }
        builder.add_shapes(node, parts);
        i += 1;
    }
    Ok(())
}

/// Reads positions/orientations from a `.pl` file into a fresh
/// [`Placement`] for `design`.
///
/// # Errors
///
/// Fails on syntax errors or references to unknown nodes.
pub fn read_placement(design: &Design, pl_path: impl AsRef<Path>) -> Result<Placement, BookshelfError> {
    let path = pl_path.as_ref();
    let text = read_file(path)?;
    let lines = tokenize(&text);
    let cur = Cursor::new(path, &lines);
    let mut pl = Placement::new_centered(design);
    for line in &lines {
        let name = &line.tokens[0];
        let node = match design.find_node(name) {
            Some(id) => id,
            None => return Err(cur.error(line.number, format!("placement of unknown node `{name}`"))),
        };
        let x: f64 = parse_tok(&cur, line, get_tok(&cur, line, 1, "x coordinate")?, "number")?;
        let y: f64 = parse_tok(&cur, line, get_tok(&cur, line, 2, "y coordinate")?, "number")?;
        let orient = match line.tokens.get(3) {
            Some(t) if !t.starts_with('/') => t
                .parse::<Orient>()
                .map_err(|e| cur.error(line.number, e.to_string()))?,
            _ => Orient::N,
        };
        pl.set_orient(node, orient);
        pl.set_lower_left(design, node, Point::new(x, y));
    }
    Ok(pl)
}
