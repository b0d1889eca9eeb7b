"""Historical measurements from the paper's prior work.

Figures 2 and 3 compare the 2018 measurements against Flautner et
al.'s 2000 study [13, 14] and Blake et al.'s 2010 study [3].  Those
numbers are *data* for the comparison figures (the 2000/2010 testbeds
are not re-simulated); the values below are digitized from the bar
charts of Figs. 2-3 and the prior papers' published results, at the
precision a bar chart allows.

2018 values come from our own simulated runs; the paper-reported
Table II values are also recorded here for paper-vs-measured
validation (``PAPER_TABLE2``).
"""

#: Flautner et al. 2000 — system-wide TLP on a 4-way SMP.
FLAUTNER_2000_TLP = {
    "Quake 2": 1.3,
    "Photoshop 4.0.1": 1.6,
    "AdobeReader 4.0": 1.2,
    "PowerPoint 97": 1.1,
    "Word 97": 1.2,
    "Excel 97": 1.2,
    "Quicktime 4.0.3": 1.4,
    "Premier 4.2": 1.7,
    "IE 5": 1.4,
}

#: Blake et al. 2010 — system-wide TLP on an 8-core/16-thread Xeon.
BLAKE_2010_TLP = {
    "Crysis": 2.0,
    "Call of Duty 4": 1.8,
    "Bioshock": 1.7,
    "Maya3D 2010": 2.4,
    "Photoshop CS4": 1.9,
    "AdobeReader 9.0": 1.6,
    "PowerPoint 2007": 1.4,
    "Word 2007": 1.3,
    "Excel 2007": 1.4,
    "Street & Trips 2010": 1.5,
    "Quicktime 7.6": 1.8,
    "Win Media Player (2010)": 1.9,
    "PowerDirector v7": 3.2,
    "HandBrake 0.9": 5.1,
    "Firefox 3.5": 1.8,
}

#: Blake et al. 2010 — GPU utilization (%) on the GTX 285.
BLAKE_2010_GPU = {
    "Call of Duty 4": 71.0,
    "Bioshock": 75.0,
    "Crysis": 83.0,
    "Maya3D 2010": 23.0,
    "Photoshop CS4": 7.4,
    "Street & Trips 2010": 16.0,
    "AdobeReader 9.0": 3.0,
    "PowerPoint 2007": 5.5,
    "Word 2007": 4.0,
    "Excel 2007": 4.5,
    "Quicktime 7.6": 27.0,
    "Win Media Player (2010)": 29.0,
    "PowerDirector v7": 12.0,
    "HandBrake 0.9": 1.5,
    "Safari 4.0": 10.0,
    "Firefox 3.5": 12.0,
}

#: Paper-reported Table II values: app key -> (TLP, GPU util %).
PAPER_TABLE2 = {
    "photoshop": (8.6, 1.6),
    "maya": (2.7, 9.9),
    "autocad": (1.2, 9.0),
    "acrobat": (1.3, 0.0),
    "excel": (2.1, 2.1),
    "powerpoint": (1.2, 4.0),
    "word": (1.3, 1.7),
    "outlook": (1.3, 2.5),
    "quicktime": (1.1, 16.4),
    "wmp": (1.3, 16.1),
    "vlc": (1.8, 15.7),
    "powerdirector": (4.3, 6.3),
    "premiere": (1.8, 0.6),
    "handbrake": (9.4, 0.4),
    "winx": (9.2, 13.6),
    "firefox": (2.2, 8.6),
    "chrome": (2.2, 5.1),
    "edge": (2.0, 4.0),
    "arizona-sunshine": (3.4, 68.2),
    "fallout4": (4.0, 84.9),
    "raw-data": (2.6, 90.9),
    "serious-sam": (2.4, 72.2),
    "space-pirate": (2.7, 61.6),
    "project-cars-2": (3.8, 80.2),
    "bitcoin-miner": (5.4, 98.9),
    "easyminer": (11.9, 96.1),
    "phoenixminer": (1.0, 100.0),
    "wineth": (1.0, 99.7),
    "cortana": (1.4, 2.7),
    "braina": (1.1, 0.0),
}

#: Paper-reported per-category averages (Table II's last two columns).
PAPER_CATEGORY_AVERAGES = {
    "Image Authoring": (4.2, 6.8),
    "Office": (1.4, 1.7),
    "Multimedia Playback": (1.4, 16.0),
    "Video Authoring": (3.1, 3.4),
    "Video Transcoding": (9.3, 7.0),
    "Web Browsing": (2.1, 5.9),
    "VR Gaming": (3.1, 76.3),
    "Cryptocurrency Mining": (4.8, 98.7),
    "Personal Assistant": (1.3, 1.4),
}

#: Paper-reported Table III (WinX): logical cores ->
#: {(metric, gpu_on): value}.
PAPER_TABLE3 = {
    4: {"rate_cpu": 9, "rate_gpu": 14, "tlp_cpu": 4.0, "tlp_gpu": 3.8,
        "util_cpu": 0.0, "util_gpu": 5.2},
    8: {"rate_cpu": 19, "rate_gpu": 27, "tlp_cpu": 7.9, "tlp_gpu": 7.0,
        "util_cpu": 0.0, "util_gpu": 10.0},
    12: {"rate_cpu": 28, "rate_gpu": 37, "tlp_cpu": 11.5, "tlp_gpu": 9.1,
         "util_cpu": 0.0, "util_gpu": 13.9},
}

#: Fig. 2 lineages: (category, [(label, year, source)]) where source is
#: a key into the historical dicts for 2000/2010 or an app registry key
#: for 2018 (measured live).
FIG2_LINEAGES = (
    ("3D Gaming", (
        ("Quake 2", 2000, "Quake 2"),
        ("Crysis", 2010, "Crysis"),
        ("Call of Duty 4", 2010, "Call of Duty 4"),
        ("Bioshock", 2010, "Bioshock"),
    )),
    ("VR Gaming", (
        ("Arizona Sunshine", 2018, "arizona-sunshine"),
        ("Fallout 4", 2018, "fallout4"),
        ("RAW Data", 2018, "raw-data"),
        ("Serious Sam", 2018, "serious-sam"),
        ("Space Pirate Trainer", 2018, "space-pirate"),
        ("Project CARS 2", 2018, "project-cars-2"),
    )),
    ("Image Authoring", (
        ("Photoshop 4.0.1", 2000, "Photoshop 4.0.1"),
        ("Maya3D 2010", 2010, "Maya3D 2010"),
        ("Photoshop CS4", 2010, "Photoshop CS4"),
        ("Maya3D 2018", 2018, "maya"),
        ("Photoshop CC", 2018, "photoshop"),
    )),
    ("Office", (
        ("AdobeReader 4.0", 2000, "AdobeReader 4.0"),
        ("PowerPoint 97", 2000, "PowerPoint 97"),
        ("Word 97", 2000, "Word 97"),
        ("Excel 97", 2000, "Excel 97"),
        ("AdobeReader 9.0", 2010, "AdobeReader 9.0"),
        ("PowerPoint 2007", 2010, "PowerPoint 2007"),
        ("Word 2007", 2010, "Word 2007"),
        ("Excel 2007", 2010, "Excel 2007"),
        ("AdobeReader DC", 2018, "acrobat"),
        ("PowerPoint 2016", 2018, "powerpoint"),
        ("Word 2016", 2018, "word"),
        ("Excel 2016", 2018, "excel"),
    )),
    ("Media Playback", (
        ("Quicktime 4.0.3", 2000, "Quicktime 4.0.3"),
        ("Quicktime 7.6", 2010, "Quicktime 7.6"),
        ("Win Media Player (2010)", 2010, "Win Media Player (2010)"),
        ("Quicktime 7.7.9", 2018, "quicktime"),
        ("Win Media Player", 2018, "wmp"),
    )),
    ("Video Authoring & Transcoding", (
        ("Premier 4.2", 2000, "Premier 4.2"),
        ("PowerDirector v7", 2010, "PowerDirector v7"),
        ("HandBrake 0.9", 2010, "HandBrake 0.9"),
        ("Premier Pro CC", 2018, "premiere"),
        ("PowerDirector v16", 2018, "powerdirector"),
        ("HandBrake 1.1.0", 2018, "handbrake"),
    )),
    ("Web Browsing", (
        ("IE 5", 2000, "IE 5"),
        ("Firefox 3.5", 2010, "Firefox 3.5"),
        ("Firefox v60", 2018, "firefox"),
        ("Edge", 2018, "edge"),
    )),
)

#: Fig. 3 lineages (GPU utilization, 2010 vs 2018).
FIG3_LINEAGES = (
    ("3D Gaming", (
        ("Call of Duty 4", 2010, "Call of Duty 4"),
        ("Bioshock", 2010, "Bioshock"),
        ("Crysis", 2010, "Crysis"),
    )),
    ("VR Gaming", (
        ("Arizona Sunshine", 2018, "arizona-sunshine"),
        ("Fallout 4", 2018, "fallout4"),
        ("RAW Data", 2018, "raw-data"),
        ("Serious Sam", 2018, "serious-sam"),
        ("Space Pirate Trainer", 2018, "space-pirate"),
        ("Project CARS 2", 2018, "project-cars-2"),
    )),
    ("Image Authoring", (
        ("Maya3D 2010", 2010, "Maya3D 2010"),
        ("Photoshop CS4", 2010, "Photoshop CS4"),
        ("Maya3D 2019", 2018, "maya"),
        ("Photoshop CC", 2018, "photoshop"),
        ("AutoCAD LT", 2018, "autocad"),
    )),
    ("Office", (
        ("Street & Trips 2010", 2010, "Street & Trips 2010"),
        ("AdobeReader 9.0", 2010, "AdobeReader 9.0"),
        ("PowerPoint 2007", 2010, "PowerPoint 2007"),
        ("Word 2007", 2010, "Word 2007"),
        ("Excel 2007", 2010, "Excel 2007"),
        ("AdobeReader DC", 2018, "acrobat"),
        ("PowerPoint 2016", 2018, "powerpoint"),
        ("Word 2016", 2018, "word"),
        ("Excel 2016", 2018, "excel"),
    )),
    ("Media Playback", (
        ("Quicktime 7.6", 2010, "Quicktime 7.6"),
        ("Quicktime 7.7.9", 2018, "quicktime"),
        ("Win Media Player", 2018, "wmp"),
        ("VLC Media Player", 2018, "vlc"),
    )),
    ("Video Authoring & Transcoding", (
        ("PowerDirector v7", 2010, "PowerDirector v7"),
        ("PowerDirector v16", 2018, "powerdirector"),
        ("Premiere Pro CC", 2018, "premiere"),
        ("HandBrake 0.9", 2010, "HandBrake 0.9"),
        ("HandBrake 1.1.0", 2018, "handbrake"),
        ("WinX", 2018, "winx"),
    )),
    ("Web Browsing", (
        ("Safari 4.0", 2010, "Safari 4.0"),
        ("Firefox 3.5", 2010, "Firefox 3.5"),
        ("Firefox v60", 2018, "firefox"),
        ("Chrome v66", 2018, "chrome"),
        ("Edge", 2018, "edge"),
    )),
)


def historical_tlp(label, year):
    """TLP reported by the prior work for a 2000/2010 application."""
    source = FLAUTNER_2000_TLP if year == 2000 else BLAKE_2010_TLP
    return source[label]


def historical_gpu(label):
    """GPU utilization reported by Blake et al. 2010."""
    return BLAKE_2010_GPU[label]
